(* The cost-based multi-attribute planner (PR 10).

   Workload: three correlated Zipf-skewed clustered columns
   (Workload.Gen.correlated_columns), indexed with approximate
   (Theorem 3) secondary indexes and device-stored rows, so candidate
   verification is a counted heap read.  The conjunctions pair one
   highly selective predicate on rare characters with two wide
   mid-selectivity ranges — the shape where Ridint's fixed rule
   (decode every predicate exactly, intersect smallest-first) decodes
   two huge postings it barely uses, and the planner can drive from
   the selective column and discharge the wide ones with prefilters
   or residual verification.

   The baseline is that fixed rule run as a plan
   (Planner.Exec.run_fixed), through the same executor.

   Gates:
   1. differential — planner rows equal both the naive scan and the
      fixed-rule baseline on every trial (mismatches = 0);
   2. io — total baseline I/O >= 2x total planner I/O over the trials;
   3. count — single-column COUNT queries agree with the exact
      cardinality, all take the directory fast path, and decode zero
      payload bits: phase_payload_total must not move across the
      whole COUNT campaign. *)

open Common

let run ~smoke =
  Obs.Metrics.reset ();
  let n = if smoke then 20_000 else 100_000 in
  let sigma = 256 in
  let block_bits = 1024 in
  let d = device ~block_bits ~mem_blocks:1024 () in
  let names = [ "c0"; "c1"; "c2" ] in
  let cols =
    List.map2
      (fun name (g : Workload.Gen.t) ->
        { Ridint.Table.name; sigma = g.sigma; values = g.data })
      names
      (Workload.Gen.correlated_columns ~seed:42 ~n ~sigma ~cols:3 ~rho:0.8
         ~run:16 ~theta:1.1 ())
  in
  let t = Ridint.Table.create_approx ~seed:7 ~store_rows:true d cols in
  let cost = Planner.Cost.calibrate t in
  fmt
    "n=%d sigma=%d rho=0.8 theta=1.1 c_exact=%.2f c_approx=%.2f \
     row_blocks=%d\n"
    n sigma cost.Planner.Cost.c_exact cost.Planner.Cost.c_approx
    cost.Planner.Cost.row_blocks;

  (* 1 + 2: skewed conjunctions, planner vs fixed smallest-first. *)
  let trials = if smoke then 16 else 40 in
  let mismatches = ref 0 in
  let b_total = ref 0 and p_total = ref 0 in
  let sample_rows = ref [] in
  for i = 0 to trials - 1 do
    (* Mostly rare-character drivers (the skewed shape), with every
       fourth trial on a hot character so non-empty intersections are
       exercised too. *)
    let c0 = if i mod 4 = 3 then i mod 16 else sigma - 1 - (i mod 32) in
    let w1 = sigma / 4 and w2 = sigma / 3 in
    let lo1 = i * 5 mod (sigma - w1) and lo2 = i * 11 mod (sigma - w2) in
    let conds =
      [
        { Ridint.Table.column = "c0"; lo = max 0 (c0 - 1); hi = c0 };
        { Ridint.Table.column = "c1"; lo = lo1; hi = lo1 + w1 - 1 };
        { Ridint.Table.column = "c2"; lo = lo2; hi = lo2 + w2 - 1 };
      ]
    in
    let q = Planner.Ast.of_conditions conds in
    let base = Planner.Exec.run_fixed t q in
    let out = Planner.Exec.run ~cost t q in
    let rows = Option.get out.Planner.Exec.rows in
    if
      (not (Cbitmap.Posting.equal rows (Option.get base.Planner.Exec.rows)))
      || not (Cbitmap.Posting.equal rows (Ridint.Table.naive t conds))
    then incr mismatches;
    let b = Iosim.Stats.ios base.Planner.Exec.stats
    and p = Iosim.Stats.ios out.Planner.Exec.stats in
    b_total := !b_total + b;
    p_total := !p_total + p;
    if i < 8 then
      sample_rows :=
        [
          Printf.sprintf "%d" i;
          Printf.sprintf "%d" (Cbitmap.Posting.cardinal rows);
          Printf.sprintf "%d" b;
          Printf.sprintf "%d" p;
          Printf.sprintf "%.1fx" (float_of_int b /. float_of_int (max 1 p));
          Planner.Plan.describe out.Planner.Exec.plan;
        ]
        :: !sample_rows
  done;
  table
    [ "trial"; "rows"; "baseline io"; "planner io"; "speedup"; "plan" ]
    (List.rev !sample_rows);
  let reduction = float_of_int !b_total /. float_of_int (max 1 !p_total) in
  let io_gate_min = 2.0 in
  let io_pass = reduction >= io_gate_min in
  let diff_pass = !mismatches = 0 in
  fmt
    "baseline %d IOs vs planner %d IOs over %d trials: %.2fx (need >= \
     %.1fx)\n"
    !b_total !p_total trials reduction io_gate_min;
  fmt "differential: %d mismatches over %d trials\n" !mismatches trials;

  (* 3: COUNT-only campaign — answered from the rank/select directory
     alone. *)
  let payload = Obs.Metrics.counter "phase_payload_total" in
  let fastpath = Obs.Metrics.counter "planner_count_fastpath_total" in
  let count_trials = if smoke then 8 else 20 in
  let count_mismatches = ref 0 in
  let count_bits = ref 0 in
  let payload_before = Obs.Metrics.counter_value payload in
  let fast_before = Obs.Metrics.counter_value fastpath in
  for i = 0 to count_trials - 1 do
    let width = 1 + (i * 7 mod 64) in
    let lo = i * 13 mod (sigma - width) in
    let cond = { Ridint.Table.column = "c1"; lo; hi = lo + width - 1 } in
    let out =
      Planner.Exec.run ~cost t
        (Planner.Ast.of_conditions ~kind:Planner.Ast.Count [ cond ])
    in
    let expect = Cbitmap.Posting.cardinal (Ridint.Table.naive t [ cond ]) in
    if out.Planner.Exec.count <> expect || out.Planner.Exec.rows <> None then
      incr count_mismatches;
    count_bits := !count_bits + out.Planner.Exec.stats.Iosim.Stats.bits_read
  done;
  let payload_delta = Obs.Metrics.counter_value payload - payload_before in
  let fast_delta = Obs.Metrics.counter_value fastpath - fast_before in
  let count_pass =
    !count_mismatches = 0 && payload_delta = 0 && fast_delta = count_trials
  in
  fmt
    "COUNT: %d queries, %d mismatches, %d payload phases, %d fastpath hits, \
     %d bits read\n"
    count_trials !count_mismatches payload_delta fast_delta !count_bits;

  let pass = diff_pass && io_pass && count_pass in
  write_artifact ~pr:10
    ~label:"cost-based planner, prefilters, COUNT fast path" ~smoke
    ~gate:
      ( pass,
        Printf.sprintf "diff=%b io=%.2fx count=%b" diff_pass reduction
          count_pass )
    [
      ("n", J.Int n);
      ("sigma", J.Int sigma);
      ("c_exact", J.Float cost.Planner.Cost.c_exact);
      ("c_approx", J.Float cost.Planner.Cost.c_approx);
      ("c_verify", J.Float cost.Planner.Cost.c_verify);
      ("planner_io_reduction", J.Float reduction);
      ("metrics", Obs.Metrics.to_json ());
      ( "gate",
        J.Obj
          [
            ( "differential",
              J.Obj
                [
                  ("trials", J.Int trials);
                  ("mismatches", J.Int !mismatches);
                  ("pass", J.Bool diff_pass);
                ] );
            ( "io",
              J.Obj
                [
                  ("baseline_ios", J.Int !b_total);
                  ("planner_ios", J.Int !p_total);
                  ("value", J.Float reduction);
                  ("min", J.Float io_gate_min);
                  ("pass", J.Bool io_pass);
                ] );
            ( "count",
              J.Obj
                [
                  ("trials", J.Int count_trials);
                  ("mismatches", J.Int !count_mismatches);
                  ("payload_phases", J.Int payload_delta);
                  ("fastpath_hits", J.Int fast_delta);
                  ("bits_read", J.Int !count_bits);
                  ("pass", J.Bool count_pass);
                ] );
            ("pass", J.Bool pass);
          ] );
    ]
