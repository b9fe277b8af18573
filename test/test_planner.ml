(* Differential tests for the conjunctive executor: every plan
   the optimizer can pick, and the fixed exact and §3 approximate
   plans, must produce exactly [Ridint.Table.naive]'s answer; the fixed
   plans must charge exactly what per-condition queries charge; COUNT
   queries must agree with the exact cardinality while decoding zero
   payload bits on the directory fast path. *)

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
      sigma = 8;
      values = Array.init rows (fun _ -> Hashing.Universal.Rng.below rng 8);
    };
  ]

(* Reference answer for an AST query: lower every predicate to ranges
   by hand and scan. *)
let naive_rows table (q : Planner.Ast.query) =
  let nq =
    Planner.Ast.normalize ~sigma_of:(Ridint.Table.col_sigma table) q
  in
  let n = Ridint.Table.rows table in
  let hit row =
    Planner.Ast.matches nq (fun c -> Ridint.Table.cell table ~column:c ~row)
  in
  let acc = ref [] in
  for row = n - 1 downto 0 do
    if (not nq.empty) && hit row then acc := row :: !acc
  done;
  Cbitmap.Posting.of_list !acc

(* --- normalization --- *)

let test_normalize () =
  let sigma_of = function "a" -> 16 | "b" -> 4 | c -> failwith c in
  let nq =
    Planner.Ast.normalize ~sigma_of
      (Planner.Ast.conj
         [
           Planner.Ast.member "a" [ 9; 3; 5; 4; 3; 99; -1 ];
           Planner.Ast.range "a" ~lo:0 ~hi:12;
           Planner.Ast.range "b" ~lo:0 ~hi:3;
         ])
  in
  Alcotest.(check bool) "not empty" false nq.empty;
  (match nq.columns with
  | [ ("a", rs) ] ->
      Alcotest.(check (list (pair int int)))
        "member coalesced and clamped"
        [ (3, 5); (9, 9) ]
        rs
  | cols ->
      Alcotest.failf "expected one effective column, got %d"
        (List.length cols));
  (* full-alphabet column dropped entirely *)
  let nq2 =
    Planner.Ast.normalize ~sigma_of
      (Planner.Ast.conj [ Planner.Ast.range "b" ~lo:(-5) ~hi:100 ])
  in
  Alcotest.(check int) "trivial dropped" 0 (List.length nq2.columns);
  (* contradiction on one column empties the conjunction *)
  let nq3 =
    Planner.Ast.normalize ~sigma_of
      (Planner.Ast.conj
         [ Planner.Ast.point "a" 3; Planner.Ast.point "a" 7 ])
  in
  Alcotest.(check bool) "contradiction empty" true nq3.empty

(* --- differential: planner = naive, across table variants --- *)

let query_gen =
  QCheck.make
    ~print:(fun (seed, rows, lo, hi, v, vs) ->
      Printf.sprintf "seed=%d rows=%d age=[%d..%d] sex=%d status=%s" seed rows
        lo hi v
        (String.concat "," (List.map string_of_int vs)))
    QCheck.Gen.(
      int_range 0 1000 >>= fun seed ->
      int_range 10 300 >>= fun rows ->
      int_range 0 63 >>= fun a ->
      int_range 0 63 >>= fun b ->
      int_range 0 1 >>= fun v ->
      list_size (int_range 0 5) (int_range 0 7) >>= fun vs ->
      return (seed, rows, min a b, max a b, v, vs))

let ast_query ?(kind = Planner.Ast.Rows) lo hi v vs =
  Planner.Ast.conj ~kind
    (Planner.Ast.range "age" ~lo ~hi
     :: Planner.Ast.point "sex" v
     ::
     (match vs with [] -> [] | vs -> [ Planner.Ast.member "status" vs ]))

let mk_table ~variant ~seed ~rows =
  let cols = mk_columns ~seed ~rows in
  match variant with
  | `Exact -> Ridint.Table.create (device ()) cols
  | `Exact_stored ->
      Ridint.Table.create ~store_rows:true (device ()) cols
  | `Approx ->
      Ridint.Table.create_approx ~seed:(seed + 7) (device ()) cols
  | `Approx_stored ->
      Ridint.Table.create_approx ~seed:(seed + 7) ~store_rows:true (device ())
        cols

(* Every plan the executor runs on one generated input: the planner's
   choice, the fixed exact plan, and on tables with approximate
   indexes the fixed §3 approximate plan — each fixed plan in both
   predicate orders, so a multi-range column drives too. *)
let prop_planner_matches_naive variant name =
  QCheck.Test.make ~count:40 ~name query_gen
    (fun (seed, rows, lo, hi, v, vs) ->
      let t = mk_table ~variant ~seed ~rows in
      let q = ast_query lo hi v vs in
      let expect = naive_rows t q in
      (* A plan that verifies checks at least every row it returns. *)
      let agrees ?(verifies = false) (out : Planner.Exec.outcome) =
        Cbitmap.Posting.equal (Option.get out.rows) expect
        && ((not verifies) || out.checked >= Cbitmap.Posting.cardinal expect)
      in
      let orders = [ q; { q with preds = List.rev q.preds } ] in
      let approx =
        match variant with
        | `Approx | `Approx_stored -> true
        | `Exact | `Exact_stored -> false
      in
      agrees (Planner.Exec.run t q)
      && List.for_all
           (fun q ->
             agrees (Planner.Exec.run_fixed t q)
             && ((not approx)
                 || agrees ~verifies:true
                      (Planner.Exec.run_fixed ~epsilon:0.1 t q)))
           orders)

(* Degenerate shapes: empty range, single condition, unconstrained. *)
let test_shapes () =
  let t = mk_table ~variant:`Exact ~seed:11 ~rows:200 in
  let run q = Planner.Exec.run t q in
  let empty =
    run (Planner.Ast.conj [ Planner.Ast.range "age" ~lo:40 ~hi:10 ])
  in
  Alcotest.(check int) "empty range -> no rows" 0 empty.count;
  (match empty.plan.shape with
  | Planner.Plan.Const_empty -> ()
  | _ -> Alcotest.fail "expected Const_empty");
  let all = run (Planner.Ast.conj []) in
  Alcotest.(check int) "no predicates -> all rows" 200 all.count;
  let single =
    run (Planner.Ast.conj [ Planner.Ast.range "age" ~lo:10 ~hi:20 ])
  in
  Alcotest.(check bool)
    "single condition matches naive" true
    (Cbitmap.Posting.equal
       (Option.get single.rows)
       (naive_rows t (Planner.Ast.conj [ Planner.Ast.range "age" ~lo:10 ~hi:20 ])))

(* --- COUNT --- *)

let prop_count_matches_cardinality variant name =
  QCheck.Test.make ~count:40 ~name query_gen
    (fun (seed, rows, lo, hi, v, vs) ->
      let t = mk_table ~variant ~seed ~rows in
      let q = ast_query ~kind:Planner.Ast.Count lo hi v vs in
      let out = Planner.Exec.run t q in
      out.rows = None
      && out.count
         = Cbitmap.Posting.cardinal
             (naive_rows t (ast_query lo hi v vs)))

(* Single-column COUNT must come from the directory alone: zero
   payload bits decoded (the phase counter does not move) and only a
   handful of probe reads. *)
let test_count_zero_payload () =
  let t = mk_table ~variant:`Exact ~seed:3 ~rows:4000 in
  let payload = Obs.Metrics.counter "phase_payload_total" in
  let q =
    Planner.Ast.conj ~kind:Planner.Ast.Count
      [
        Planner.Ast.range "age" ~lo:5 ~hi:40;
        Planner.Ast.member "age" [ 7; 8; 9; 30; 31; 50 ];
      ]
  in
  let before = Obs.Metrics.counter_value payload in
  let out = Planner.Exec.run t q in
  let after = Obs.Metrics.counter_value payload in
  (match out.plan.shape with
  | Planner.Plan.Count_directory _ -> ()
  | _ -> Alcotest.fail "expected the directory COUNT fast path");
  Alcotest.(check int) "zero payload phases" 0 (after - before);
  Alcotest.(check int)
    "count = exact cardinality"
    (Cbitmap.Posting.cardinal
       (naive_rows t
          (Planner.Ast.conj
             [
               Planner.Ast.range "age" ~lo:5 ~hi:40;
               Planner.Ast.member "age" [ 7; 8; 9; 30; 31; 50 ];
             ])))
    out.count;
  Alcotest.(check bool)
    "only directory-probe reads" true
    (out.stats.Iosim.Stats.bits_read < 512)

(* Exact decodes go through [Indexing.Instance.run]: a one-range
   column is one instance query, a multi-range column one batch, and
   both show in the [indexing_*] counters. *)
let test_exec_counts_instance_queries () =
  let t = mk_table ~variant:`Exact ~seed:5 ~rows:2000 in
  let queries = Obs.Metrics.counter "indexing_queries_total" in
  let batches = Obs.Metrics.counter "indexing_batches_total" in
  let run q =
    let q0 = Obs.Metrics.counter_value queries in
    let b0 = Obs.Metrics.counter_value batches in
    let out = Planner.Exec.run t q in
    Alcotest.(check bool) "rows = naive" true
      (Cbitmap.Posting.equal (Option.get out.rows) (naive_rows t q));
    ( Obs.Metrics.counter_value queries - q0,
      Obs.Metrics.counter_value batches - b0 )
  in
  Alcotest.(check (pair int int))
    "one range: one instance query" (1, 0)
    (run (Planner.Ast.conj [ Planner.Ast.range "age" ~lo:5 ~hi:40 ]));
  Alcotest.(check (pair int int))
    "three ranges: one instance batch" (0, 1)
    (run
       (Planner.Ast.conj [ Planner.Ast.member "age" [ 7; 8; 9; 30; 31; 50 ] ]))

(* --- ε sweep: a calibrated planner stays exact at every ε the grid
   can pick, on the approx+stored table where prefilters are live --- *)

let test_epsilon_sweep () =
  let t = mk_table ~variant:`Approx_stored ~seed:21 ~rows:1500 in
  let cost = Planner.Cost.calibrate t in
  List.iter
    (fun (lo, hi) ->
      let q = ast_query lo hi 1 [ 2; 3; 4 ] in
      let out = Planner.Exec.run ~cost t q in
      Alcotest.(check bool)
        (Printf.sprintf "exact at age=[%d..%d] (%s)" lo hi
           (Planner.Plan.describe out.plan))
        true
        (Cbitmap.Posting.equal (Option.get out.rows) (naive_rows t q)))
    [ (0, 0); (0, 7); (10, 40); (0, 62); (5, 5) ]

(* --- planner vs fixed smallest-first baseline: on a skewed query the
   chosen plan must not cost more I/O than decoding every predicate
   exactly --- *)

let test_planner_not_worse_than_baseline () =
  let rows = 4000 in
  let t = mk_table ~variant:`Approx_stored ~seed:5 ~rows in
  let cost = Planner.Cost.calibrate t in
  let conds =
    [
      { Ridint.Table.column = "age"; lo = 3; hi = 3 };
      { Ridint.Table.column = "sex"; lo = 1; hi = 1 };
      { Ridint.Table.column = "status"; lo = 2; hi = 6 };
    ]
  in
  let q = Planner.Ast.of_conditions conds in
  (* The baseline is measured, not planned: it moves no planner metric. *)
  let planned = Obs.Metrics.counter "planner_queries_total" in
  let before = Obs.Metrics.counter_value planned in
  let baseline = Planner.Exec.run_fixed t q in
  Alcotest.(check int)
    "fixed plan leaves planner metrics alone" before
    (Obs.Metrics.counter_value planned);
  let out = Planner.Exec.run ~cost t q in
  Alcotest.(check bool)
    "same rows" true
    (Cbitmap.Posting.equal (Option.get baseline.rows) (Option.get out.rows));
  let b = Iosim.Stats.ios baseline.stats and p = Iosim.Stats.ios out.stats in
  if p > b then
    Alcotest.failf "planner used more I/O than baseline: %d > %d (%s)" p b
      (Planner.Plan.describe out.plan)

(* --- counter parity: the fixed plans charge exactly what the
   per-condition RID intersection they replaced charged --- *)

(* The reference runs: every condition answered in condition order,
   cold, then intersected — exactly ([Static_index.query]) or
   approximately ([Approx_index.query], the first answer's candidates
   filtered by hashed membership in the others, then verified against
   the in-memory columns). *)
let cold t f =
  let d = Ridint.Table.device t in
  Iosim.Device.clear_pool d;
  Iosim.Device.reset_stats d;
  let r = f () in
  (r, Iosim.Stats.snapshot (Iosim.Device.stats d))

let reference_exact t (conds : Ridint.Table.condition list) =
  let n = Ridint.Table.rows t in
  match
    List.map
      (fun (c : Ridint.Table.condition) ->
        Indexing.Answer.to_posting ~n
          (Secidx.Static_index.query
             (Ridint.Table.col_index t c.column)
             ~lo:c.lo ~hi:c.hi))
      conds
  with
  | [] -> assert false
  | p :: ps -> List.fold_left Cbitmap.Posting.inter p ps

let reference_approx t ~epsilon (conds : Ridint.Table.condition list) =
  let n = Ridint.Table.rows t in
  let value (c : Ridint.Table.condition) row =
    (Array.find_opt
       (fun (col : Ridint.Table.column) -> col.name = c.column)
       (Ridint.Table.columns t)
    |> Option.get)
      .values.(row)
  in
  match
    List.map
      (fun (c : Ridint.Table.condition) ->
        Secidx.Approx_index.query
          (Option.get (Ridint.Table.col_approx t c.column))
          ~epsilon ~lo:c.lo ~hi:c.hi)
      conds
  with
  | [] -> assert false
  | first :: rest ->
      let cand =
        Cbitmap.Posting.filter
          (fun row -> List.for_all (fun a -> Secidx.Approx_index.mem a row) rest)
          (Secidx.Approx_index.candidates first ~n)
      in
      let verified =
        Cbitmap.Posting.filter
          (fun row ->
            List.for_all
              (fun (c : Ridint.Table.condition) ->
                let v = value c row in
                v >= c.lo && v <= c.hi)
              conds)
          cand
      in
      (verified, Cbitmap.Posting.cardinal cand)

(* Conditions on distinct columns with non-trivial ranges (the age
   range stops short of the whole alphabet), rotated so each column
   drives: normalization keeps exactly these ranges, in this order. *)
let parity_gen =
  QCheck.make
    ~print:(fun (seed, rows, lo, hi, v, (s_lo, s_hi), rot) ->
      Printf.sprintf "seed=%d rows=%d age=[%d..%d] sex=%d status=[%d..%d] rot=%d"
        seed rows lo hi v s_lo s_hi rot)
    QCheck.Gen.(
      int_range 0 1000 >>= fun seed ->
      int_range 10 300 >>= fun rows ->
      int_range 0 62 >>= fun a ->
      int_range 0 62 >>= fun b ->
      int_range 0 1 >>= fun v ->
      int_range 0 6 >>= fun s ->
      int_range 0 6 >>= fun e ->
      int_range 0 2 >>= fun rot ->
      return (seed, rows, min a b, max a b, v, (min s e, max s e), rot))

let parity_conds (_, _, lo, hi, v, (s_lo, s_hi), rot) =
  let conds =
    [
      { Ridint.Table.column = "age"; lo; hi };
      { Ridint.Table.column = "sex"; lo = v; hi = v };
      { Ridint.Table.column = "status"; lo = s_lo; hi = s_hi };
    ]
  in
  List.filteri (fun i _ -> i >= rot) conds
  @ List.filteri (fun i _ -> i < rot) conds

(* Exact parity on an exact, an exact stored-rows and an approximate
   table; approximate parity on the approximate one, whose
   verification reads the in-memory columns like the reference. *)
let prop_fixed_counter_parity =
  QCheck.Test.make ~count:30 ~name:"fixed plans = per-condition counters"
    parity_gen
    (fun ((seed, rows, _, _, _, _, _) as input) ->
      let conds = parity_conds input in
      let q = Planner.Ast.of_conditions conds in
      let same_stats a b =
        Iosim.Stats.equal a b
        || QCheck.Test.fail_reportf "stats differ:@ %a@ vs reference@ %a"
             Iosim.Stats.pp a Iosim.Stats.pp b
      in
      List.for_all
        (fun variant ->
          let t = mk_table ~variant ~seed ~rows in
          let exact = Planner.Exec.run_fixed t q in
          let ref_rows, ref_stats = cold t (fun () -> reference_exact t conds) in
          Cbitmap.Posting.equal (Option.get exact.rows) ref_rows
          && same_stats exact.stats ref_stats
          &&
          match variant with
          | `Approx ->
              let approx = Planner.Exec.run_fixed ~epsilon:0.1 t q in
              let (ref_rows, ref_checked), ref_stats =
                cold t (fun () -> reference_approx t ~epsilon:0.1 conds)
              in
              Cbitmap.Posting.equal (Option.get approx.rows) ref_rows
              && approx.checked = ref_checked
              && same_stats approx.stats ref_stats
          | _ -> true)
        [ `Exact; `Exact_stored; `Approx ])

(* --- plan identity: each column costed once per query --- *)

type plan_pred = Span of int * int | Values of int list

type plan_case = {
  seed : int;
  rows : int;
  cols : (int * plan_pred option) list;  (* sigma, this column's predicate *)
  approx : bool;
  stored : bool;
  count : bool;
  consts : float * float * float;  (* c_exact, c_approx, c_verify *)
}

let plan_case_gen =
  let open QCheck.Gen in
  let pred =
    oneof
      [
        map2 (fun a b -> Span (a, b)) nat nat;
        map (fun vs -> Values vs) (list_size (int_range 1 4) nat);
      ]
  in
  let col =
    pair
      (oneofl [ 2; 3; 8; 16; 64 ])
      (frequency [ (1, return None); (6, map Option.some pred) ])
  in
  int_bound 100_000 >>= fun seed ->
  int_range 20 400 >>= fun rows ->
  frequencyl [ (1, 2); (1, 3); (1, 4); (2, 5) ] >>= fun ncols ->
  list_repeat ncols col >>= fun cols ->
  bool >>= fun approx ->
  frequencyl [ (3, true); (1, false) ] >>= fun stored ->
  bool >>= fun count ->
  triple (float_range 0.25 4.0) (float_range 0.25 4.0) (float_range 0.05 20.0)
  >>= fun consts -> return { seed; rows; cols; approx; stored; count; consts }

let print_plan_case c =
  let pred = function
    | None -> "-"
    | Some (Span (a, b)) -> Printf.sprintf "span %d %d" a b
    | Some (Values vs) ->
        "values " ^ String.concat "," (List.map string_of_int vs)
  in
  let ce, ca, cv = c.consts in
  Printf.sprintf
    "seed=%d rows=%d approx=%b stored=%b count=%b c=(%h,%h,%h) [%s]" c.seed
    c.rows c.approx c.stored c.count ce ca cv
    (String.concat "; "
       (List.map
          (fun (sigma, p) -> Printf.sprintf "s=%d %s" sigma (pred p))
          c.cols))

(* [Plan.choose] against the reference that re-costs every column for
   each driver: the same plan, [considered] and estimates to the bit,
   over 2-5 columns (5 effective columns with approximate indexes take
   the greedy path: 5^4 combinations per driver), single- and
   multi-range columns, Rows and Count. *)
let prop_plan_identity =
  QCheck.Test.make ~count:150 ~long_factor:10
    ~name:"choose = per-driver reference costing (bit-equal)"
    (QCheck.make ~print:print_plan_case plan_case_gen)
    (fun c ->
      let rng = Hashing.Universal.Rng.create ~seed:c.seed in
      let name i = Printf.sprintf "c%d" i in
      let columns =
        List.mapi
          (fun i (sigma, _) ->
            {
              Ridint.Table.name = name i;
              sigma;
              values =
                Array.init c.rows (fun _ ->
                    Hashing.Universal.Rng.below rng sigma);
            })
          c.cols
      in
      let t =
        if c.approx then
          Ridint.Table.create_approx ~seed:c.seed ~store_rows:c.stored
            (device ()) columns
        else Ridint.Table.create ~store_rows:c.stored (device ()) columns
      in
      let preds =
        List.concat
          (List.mapi
             (fun i (sigma, p) ->
               match p with
               | None -> []
               | Some (Span (a, b)) ->
                   let a = a mod sigma and b = b mod sigma in
                   [ Planner.Ast.range (name i) ~lo:(min a b) ~hi:(max a b) ]
               | Some (Values vs) ->
                   [
                     Planner.Ast.member (name i)
                       (List.map (fun v -> v mod sigma) vs);
                   ])
             c.cols)
      in
      let kind = if c.count then Planner.Ast.Count else Planner.Ast.Rows in
      let nq =
        Planner.Ast.normalize ~sigma_of:(Ridint.Table.col_sigma t)
          (Planner.Ast.conj ~kind preds)
      in
      let c_exact, c_approx, c_verify = c.consts in
      let cost =
        { (Planner.Cost.of_table t) with c_exact; c_approx; c_verify }
      in
      let got = Planner.Plan.choose cost t nq in
      let want = Oracle.Plan.choose cost t nq in
      let bits f = Int64.bits_of_float f in
      let same name a b =
        bits a = bits b
        || QCheck.Test.fail_reportf "%s: %h, reference %h" name a b
      in
      (Planner.Plan.describe got = Planner.Plan.describe want
      || QCheck.Test.fail_reportf "plan %s, reference %s"
           (Planner.Plan.describe got) (Planner.Plan.describe want))
      && got.shape = want.shape && got.kind = want.kind
      && (got.considered = want.considered
         || QCheck.Test.fail_reportf "considered %d, reference %d"
              got.considered want.considered)
      && same "est_ios" got.est_ios want.est_ios
      && same "est_result" got.est_result want.est_result
      && same "est_verify" got.est_verify want.est_verify)

let suite =
  [
    Alcotest.test_case "normalization" `Quick test_normalize;
    Alcotest.test_case "degenerate shapes" `Quick test_shapes;
    Alcotest.test_case "count fast path decodes zero payload" `Quick
      test_count_zero_payload;
    Alcotest.test_case "epsilon sweep stays exact" `Quick test_epsilon_sweep;
    Alcotest.test_case "exact decodes run through Instance.run" `Quick
      test_exec_counts_instance_queries;
    Alcotest.test_case "planner not worse than baseline" `Quick
      test_planner_not_worse_than_baseline;
    qcheck (prop_planner_matches_naive `Exact "planner = naive (exact table)");
    qcheck
      (prop_planner_matches_naive `Exact_stored
         "planner = naive (stored rows)");
    qcheck (prop_planner_matches_naive `Approx "planner = naive (approx table)");
    qcheck
      (prop_planner_matches_naive `Approx_stored
         "planner = naive (approx, stored rows)");
    qcheck prop_fixed_counter_parity;
    qcheck prop_plan_identity;
    qcheck
      (prop_count_matches_cardinality `Exact
         "count = cardinality (exact table)");
    qcheck
      (prop_count_matches_cardinality `Approx_stored
         "count = cardinality (approx, stored rows)");
  ]
