(* The paper's motivating example (§1): "in a database of people we
   may want to find all married men of age 33", answered by RID
   intersection of three one-dimensional secondary indexes — exactly,
   and approximately with Bloom-filter-style answers (§3), both run as
   fixed plans by the conjunctive executor.

     dune exec examples/olap_people.exe *)

module Rng = Hashing.Universal.Rng

let () =
  let rows = 65536 in
  let rng = Rng.create ~seed:2026 in
  (* age 0..99 (skewed towards working age), sex 0/1, marital status
     0=single 1=married 2=divorced 3=widowed, income decile 0..9. *)
  let age =
    Array.init rows (fun _ -> 18 + ((Rng.below rng 50 + Rng.below rng 50) / 2))
  in
  let sex = Array.init rows (fun _ -> Rng.below rng 2) in
  let status = Array.init rows (fun _ -> Rng.below rng 4) in
  let income = Array.init rows (fun _ -> Rng.below rng 10) in
  let columns =
    [
      { Ridint.Table.name = "age"; sigma = 100; values = age };
      { Ridint.Table.name = "sex"; sigma = 2; values = sex };
      { Ridint.Table.name = "status"; sigma = 4; values = status };
      { Ridint.Table.name = "income"; sigma = 10; values = income };
    ]
  in
  let device =
    Iosim.Device.create ~block_bits:1024 ~mem_bits:(1024 * 1024) ()
  in
  let table = Ridint.Table.create_approx ~seed:7 device columns in
  Format.printf "people table: %d rows, indexes use %d KiB@." rows
    (Ridint.Table.size_bits table / 8192);

  let married_men_33 =
    [
      { Ridint.Table.column = "age"; lo = 33; hi = 33 };
      { Ridint.Table.column = "sex"; lo = 1; hi = 1 };
      { Ridint.Table.column = "status"; lo = 1; hi = 1 };
    ]
  in

  (* Exact RID intersection, then the approximate intersection with
     verification (§3); each runs cold with its own device counters. *)
  let q = Planner.Ast.of_conditions married_men_33 in
  let exact = Planner.Exec.run_fixed table q in
  Format.printf "exact:  %d married men of age 33  (%d block reads, %d bits)@."
    exact.count exact.stats.block_reads exact.stats.bits_read;
  let approx = Planner.Exec.run_fixed ~epsilon:0.05 table q in
  Format.printf
    "approx: %d rows after verifying %d candidates (%d block reads, %d bits)@."
    approx.count approx.checked approx.stats.block_reads
    approx.stats.bits_read;
  assert (
    Cbitmap.Posting.equal (Option.get exact.rows) (Option.get approx.rows));

  (* A wider conjunctive query plus a partial-match query. *)
  let prosperous_middle_age =
    [
      { Ridint.Table.column = "age"; lo = 40; hi = 55 };
      { Ridint.Table.column = "income"; lo = 8; hi = 9 };
      { Ridint.Table.column = "status"; lo = 1; hi = 1 };
    ]
  in
  let all =
    Option.get
      (Planner.Exec.run_fixed table
         (Planner.Ast.of_conditions prosperous_middle_age))
        .rows
  in
  let two_of_three =
    Ridint.Table.query_at_least table ~k:2 prosperous_middle_age
  in
  Format.printf
    "married 40-55 in top income: %d rows; matching >= 2 of 3 conditions: %d rows@."
    (Cbitmap.Posting.cardinal all)
    (Cbitmap.Posting.cardinal two_of_three);
  assert (Cbitmap.Posting.subset all two_of_three);
  Format.printf "olap_people: OK@."
