(* Tests for the RID-intersection application (§1, §3): the table's
   own partial-match queries, and the conjunctive checks that run
   through [Planner.Exec]'s fixed plans.  The differential properties
   of those plans live with the planner's in test_planner.ml. *)

let qcheck = QCheck_alcotest.to_alcotest

let device ?(block_bits = 256) ?(mem_blocks = 256) () =
  Iosim.Device.create ~block_bits ~mem_bits:(mem_blocks * block_bits) ()

let mk_columns ~seed ~rows =
  let rng = Hashing.Universal.Rng.create ~seed in
  [
    {
      Ridint.Table.name = "age";
      sigma = 64;
      values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 64);
    };
    {
      Ridint.Table.name = "sex";
      sigma = 2;
      values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 2);
    };
    {
      Ridint.Table.name = "status";
      sigma = 4;
      values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 4);
    };
  ]

let conds_gen =
  QCheck.make
    ~print:(fun (seed, rows, a_lo, a_hi) ->
      Printf.sprintf "seed=%d rows=%d age=[%d..%d]" seed rows a_lo a_hi)
    QCheck.Gen.(
      int_range 0 1000 >>= fun seed ->
      int_range 10 400 >>= fun rows ->
      int_range 0 63 >>= fun a ->
      int_range 0 63 >>= fun b ->
      return (seed, rows, min a b, max a b))

let conditions a_lo a_hi =
  [
    { Ridint.Table.column = "age"; lo = a_lo; hi = a_hi };
    { Ridint.Table.column = "sex"; lo = 1; hi = 1 };
    { Ridint.Table.column = "status"; lo = 2; hi = 3 };
  ]

let prop_at_least =
  QCheck.Test.make ~count:40 ~name:"at-least-k matches naive counting"
    conds_gen
    (fun (seed, rows, a_lo, a_hi) ->
      let t = Ridint.Table.create (device ()) (mk_columns ~seed ~rows) in
      let conds = conditions a_lo a_hi in
      let got = Ridint.Table.query_at_least t ~k:2 conds in
      (* Reference: count satisfied conditions per row. *)
      let expected = ref [] in
      for row = rows - 1 downto 0 do
        let sat =
          List.length
            (List.filter
               (fun (c : Ridint.Table.condition) ->
                 let col =
                   List.find
                     (fun (col : Ridint.Table.column) -> col.name = c.column)
                     (Array.to_list (Ridint.Table.columns t))
                 in
                 col.values.(row) >= c.lo && col.values.(row) <= c.hi)
               conds)
        in
        if sat >= 2 then expected := row :: !expected
      done;
      Cbitmap.Posting.equal got (Cbitmap.Posting.of_list !expected))

(* The conjunctive executor over a table: the fixed plans of
   [Planner.Exec] are the RID intersection this table serves. *)
let fixed ?epsilon t conds =
  Planner.Exec.run_fixed ?epsilon t (Planner.Ast.of_conditions conds)

let test_empty_conditions () =
  let t = Ridint.Table.create (device ()) (mk_columns ~seed:3 ~rows:20) in
  Alcotest.(check int) "all rows" 20
    (Cbitmap.Posting.cardinal (Option.get (fixed t []).rows))

let test_unknown_column () =
  let t = Ridint.Table.create (device ()) (mk_columns ~seed:4 ~rows:10) in
  Alcotest.check_raises "unknown column"
    (Invalid_argument "Table: unknown column height") (fun () ->
      ignore (fixed t [ { Ridint.Table.column = "height"; lo = 0; hi = 1 } ]))

(* A fixed approximate plan needs the §3 indexes: on a table built
   without them the error names the first column it reached. *)
let test_approx_needs_approx_index () =
  let t = Ridint.Table.create (device ()) (mk_columns ~seed:5 ~rows:50) in
  Alcotest.check_raises "no approximate index"
    (Invalid_argument "Exec: no approximate index on column age") (fun () ->
      ignore (fixed ~epsilon:0.1 t (conditions 3 9)))

let test_approx_reduces_io () =
  (* The point of §3: intersecting approximate answers reads fewer
     bits than intersecting exact ones when selectivity is low.
     n = 2^16 keeps moderate z/epsilon on the hashed path. *)
  let rows = 65536 in
  let rng = Hashing.Universal.Rng.create ~seed:77 in
  let cols =
    [
      {
        Ridint.Table.name = "a";
        sigma = 4096;
        values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 4096);
      };
      {
        Ridint.Table.name = "b";
        sigma = 4096;
        values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 4096);
      };
    ]
  in
  let dev = device ~block_bits:1024 ~mem_blocks:1024 () in
  let t = Ridint.Table.create_approx ~seed:5 dev cols in
  let conds =
    [
      { Ridint.Table.column = "a"; lo = 100; hi = 100 };
      { Ridint.Table.column = "b"; lo = 200; hi = 200 };
    ]
  in
  let exact = fixed t conds in
  let approx = fixed ~epsilon:0.1 t conds in
  let exact_bits = exact.stats.bits_read in
  let approx_bits = approx.stats.bits_read in
  Alcotest.(check bool)
    "same answer" true
    (Cbitmap.Posting.equal (Option.get exact.rows) (Option.get approx.rows));
  if not (approx_bits < exact_bits) then
    Alcotest.failf "approx read more: %d vs %d bits" approx_bits exact_bits

let suite =
  [
    qcheck prop_at_least;
    Alcotest.test_case "empty conditions" `Quick test_empty_conditions;
    Alcotest.test_case "unknown column" `Quick test_unknown_column;
    Alcotest.test_case "approximate plan needs approximate indexes" `Quick
      test_approx_needs_approx_index;
    Alcotest.test_case "approximate intersection reads less" `Quick
      test_approx_reduces_io;
  ]

let prop_at_least_approx =
  QCheck.Test.make ~count:20 ~name:"approximate at-least-k verifies to exact"
    conds_gen
    (fun (seed, rows, a_lo, a_hi) ->
      let t =
        Ridint.Table.create_approx ~seed:(seed + 2) (device ())
          (mk_columns ~seed ~rows)
      in
      let conds = conditions a_lo a_hi in
      let exact = Ridint.Table.query_at_least t ~k:2 conds in
      let approx, checked =
        Ridint.Table.query_at_least_approx t ~epsilon:0.2 ~k:2 conds
      in
      checked >= Cbitmap.Posting.cardinal approx
      && Cbitmap.Posting.equal exact approx)

(* Verification reads the associated data: on a table that stores its
   rows it is charged, on one that does not it is free.  Same columns
   and seed give both tables the same index layout and the same
   hashed answers, so they must agree on the answer and on [checked],
   and the stored one reads strictly more blocks once anything is
   checked. *)
let prop_at_least_approx_charged =
  QCheck.Test.make ~count:20
    ~name:"stored rows charge at-least-k verification"
    conds_gen
    (fun (seed, rows, a_lo, a_hi) ->
      let cols = mk_columns ~seed ~rows in
      let build store_rows =
        Ridint.Table.create_approx ~seed:(seed + 2) ~store_rows (device ()) cols
      in
      let conds = conditions a_lo a_hi in
      let cold t =
        let d = Ridint.Table.device t in
        Iosim.Device.clear_pool d;
        Iosim.Device.reset_stats d;
        let r = Ridint.Table.query_at_least_approx t ~epsilon:0.2 ~k:2 conds in
        (r, (Iosim.Device.stats d).Iosim.Stats.block_reads)
      in
      let (stored, s_checked), s_blocks = cold (build true) in
      let (mem, m_checked), m_blocks = cold (build false) in
      Cbitmap.Posting.equal stored mem
      && s_checked = m_checked
      && (s_checked = 0 || s_blocks > m_blocks))

let suite =
  suite @ [ qcheck prop_at_least_approx; qcheck prop_at_least_approx_charged ]
