(* Query tracing (PR 4), space ledgers and the theorem-
   envelope checker.  Every campaign builder is built on a fresh
   device with a ledger attached (the ledger must sum to the device's
   allocated bits exactly), then queried twice per range — once
   untraced, once traced — and the two runs must agree bit for bit:
   same answer, same value in every I/O counter.  The traced run
   yields per-phase I/O histograms from reconstructed spans, plus
   per-block device events cross-checked against the counters.
   Paper-side builders are then checked against the Theorem 1/2 query
   envelopes with a constant fitted on even-indexed queries and
   verified on odd-indexed ones; the append paths are checked against
   Theorems 4/5 the same way across sizes.  Emits BENCH_PR4.json and
   a sample Chrome trace (TRACE_PR4.trace.json); exits non-zero when
   any gate fails. *)

open Common

type phase_agg = {
  mutable p_spans : int;
  mutable p_io : int;
  mutable p_max : int;
  p_hist : int array; (* span count per io-cost bucket *)
}

let hist_buckets = [| "0"; "1"; "2-3"; "4-7"; "8-15"; "16-31"; "32-63"; "64+" |]

let hist_bucket io =
  if io <= 0 then 0
  else if io >= 64 then 7
  else 1 + Bitio.Codes.floor_log2 io

(* Which query envelope applies, and whether its violations gate the
   run.  Baselines are traced and ledgered but not envelope-checked:
   the paper's bounds are claims about the paper's structures. *)
let envelope_for = function
  | "alphabet-tree" | "alphabet-doubling" -> Some ("thm1", true)
  | "static" -> Some ("thm2", true)
  | "append" | "dynamic" | "buffered-bitmap" -> Some ("thm2", false)
  | _ -> None

let envelope_slack = 1.5

type trace_row = {
  tr_name : string;
  tr_json : J.t;
  tr_kib : float;
  tr_ledger_exact : bool;
  tr_mismatches : int;
  tr_unmatched : int;
  tr_events_match : bool;
  tr_violations : int; (* gated builders only; 0 otherwise *)
  tr_fit : float option;
}

let trace_one ~block_bits ~n ~sigma ~queries data (name, builder) =
  let dev = device ~block_bits ~mem_blocks:64 () in
  let ledger = Obs.Ledger.create () in
  Iosim.Device.set_ledger dev ledger;
  let inst = builder dev ~sigma data in
  let used = Iosim.Device.used_bits dev in
  let ledger_total = Obs.Ledger.total ledger in
  let ledger_exact = ledger_total = used in
  (* Reference pass, tracing off. *)
  let untraced =
    List.map
      (fun { Workload.Queries.lo; hi } ->
        let answers, stats =
          Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |]
        in
        let answer = answers.(0) in
        (lo, hi, answer, stats))
      queries
  in
  (* Traced pass: deterministic logical clock, I/O probe wired to this
     device's counters so span io_cost is the block-I/O delta. *)
  Obs.Trace.enable ~capacity:(1 lsl 18) ();
  Obs.Trace.set_io_probe (fun () -> Iosim.Stats.ios (Iosim.Device.stats dev));
  let phases : (string, phase_agg) Hashtbl.t = Hashtbl.create 8 in
  let ev_read = ref 0
  and ev_write = ref 0
  and ev_hit = ref 0
  and ev_evict = ref 0
  and ev_refill = ref 0 in
  let unmatched = ref 0
  and dropped = ref 0
  and mismatches = ref 0 in
  List.iter
    (fun (lo, hi, ref_answer, ref_stats) ->
      Obs.Trace.clear ();
      let answers, stats =
        Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |]
      in
      let answer = answers.(0) in
      (* Differential: tracing must not change the answer or any
         counter (seeks included). *)
      let same_answer =
        Cbitmap.Posting.equal
          (Indexing.Answer.to_posting ~n answer)
          (Indexing.Answer.to_posting ~n ref_answer)
      in
      if not (same_answer && Iosim.Stats.equal stats ref_stats) then
        incr mismatches;
      unmatched := !unmatched + Obs.Trace.unmatched ();
      dropped := !dropped + Obs.Trace.dropped ();
      List.iter
        (fun (e : Obs.Trace.event) ->
          if e.Obs.Trace.kind = Obs.Trace.Instant then
            match (e.Obs.Trace.cat, e.Obs.Trace.name) with
            | "dev", "read" -> incr ev_read
            | "dev", "write" -> incr ev_write
            | "dev", "hit" -> incr ev_hit
            | "dev", "evict" -> incr ev_evict
            | "dec", "refill" -> incr ev_refill
            | _ -> ())
        (Obs.Trace.events ());
      List.iter
        (fun (s : Obs.Trace.span) ->
          if s.Obs.Trace.span_cat = "phase" then begin
            let agg =
              match Hashtbl.find_opt phases s.Obs.Trace.span_name with
              | Some a -> a
              | None ->
                  let a =
                    { p_spans = 0; p_io = 0; p_max = 0; p_hist = Array.make 8 0 }
                  in
                  Hashtbl.add phases s.Obs.Trace.span_name a;
                  a
            in
            agg.p_spans <- agg.p_spans + 1;
            agg.p_io <- agg.p_io + s.Obs.Trace.io_cost;
            agg.p_max <- max agg.p_max s.Obs.Trace.io_cost;
            let b = hist_bucket s.Obs.Trace.io_cost in
            agg.p_hist.(b) <- agg.p_hist.(b) + 1
          end)
        (Obs.Trace.spans ()))
    untraced;
  (* Sample trace artifact: the ring still holds the last query of the
     paper's main structure. *)
  if name = "static" then begin
    Obs.Trace.write_chrome "TRACE_PR4.trace.json";
    Obs.Trace.write_jsonl "TRACE_PR4.jsonl"
  end;
  Obs.Trace.disable ();
  Obs.Trace.reset_io_probe ();
  Iosim.Device.clear_ledger dev;
  (* Per-block device events must replay the counters exactly (queries
     are read-only, so write events are only checked for count). *)
  let sum f =
    List.fold_left (fun acc (_, _, _, s) -> acc + f s) 0 untraced
  in
  let events_match =
    !ev_read = sum (fun s -> s.Iosim.Stats.block_reads)
    && !ev_hit = sum (fun s -> s.Iosim.Stats.pool_hits)
    && !ev_write = sum (fun s -> s.Iosim.Stats.block_writes)
  in
  (* Envelope check on the untraced measurements. *)
  let envelope_json, violations, fit =
    match envelope_for name with
    | None -> (J.Null, 0, None)
    | Some (thm, gated) ->
        let sample =
          List.map
            (fun (_, _, answer, stats) ->
              let measured = Iosim.Stats.ios stats in
              let bound =
                match thm with
                | "thm1" ->
                    Obs.Envelope.thm1_ios ~block_bits ~sigma
                      ~t_bits:(Indexing.Answer.compressed_bits answer)
                | _ ->
                    Obs.Envelope.thm2_ios ~block_bits ~n
                      ~z:(Indexing.Answer.cardinal ~n answer)
              in
              (measured, bound))
            untraced
        in
        let calib = List.filteri (fun i _ -> i mod 2 = 0) sample in
        let check = List.filteri (fun i _ -> i mod 2 = 1) sample in
        let c = Obs.Envelope.fit calib in
        let viol =
          List.length (Obs.Envelope.violations ~c ~slack:envelope_slack check)
        in
        ( J.Obj
            [
              ("theorem", J.String thm);
              ("gated", J.Bool gated);
              ("c_fit", J.Float c);
              ("slack", J.Float envelope_slack);
              ("calibration_queries", J.Int (List.length calib));
              ("checked_queries", J.Int (List.length check));
              ("violations", J.Int viol);
            ],
          (if gated then viol else 0),
          Some c )
  in
  let space_json =
    match envelope_for name with
    | None -> J.Null
    | Some _ ->
        let h0_bits = Cbitmap.Entropy.nh0_bits ~sigma data in
        let bound = Obs.Envelope.space_bound_bits ~n ~sigma ~h0_bits in
        J.Obj
          [
            ("bound_bits", J.Float bound);
            ("measured_bits", J.Int inst.Indexing.Instance.size_bits);
            ( "ratio",
              J.Float (float_of_int inst.Indexing.Instance.size_bits /. bound)
            );
          ]
  in
  let phase_rows =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) phases [])
  in
  let json =
    J.Obj
      [
        ("name", J.String name);
        ("instance", J.String inst.Indexing.Instance.name);
        ("size_bits", J.Int inst.Indexing.Instance.size_bits);
        ( "ledger",
          J.Obj
            [
              ("components", Obs.Ledger.to_json ledger);
              ("total_bits", J.Int ledger_total);
              ("device_used_bits", J.Int used);
              ("exact", J.Bool ledger_exact);
            ] );
        ( "phases",
          J.List
            (List.map
               (fun (pname, a) ->
                 J.Obj
                   [
                     ("name", J.String pname);
                     ("spans", J.Int a.p_spans);
                     ("total_io", J.Int a.p_io);
                     ("max_io", J.Int a.p_max);
                     ( "io_histogram",
                       J.Obj
                         (Array.to_list
                            (Array.mapi
                               (fun i b -> (b, J.Int a.p_hist.(i)))
                               hist_buckets)) );
                   ])
               phase_rows) );
        ( "device_events",
          J.Obj
            [
              ("read", J.Int !ev_read);
              ("write", J.Int !ev_write);
              ("hit", J.Int !ev_hit);
              ("evict", J.Int !ev_evict);
              ("decoder_refill", J.Int !ev_refill);
              ("counters_match", J.Bool events_match);
            ] );
        ( "differential",
          J.Obj
            [
              ("queries", J.Int (List.length untraced));
              ("mismatches", J.Int !mismatches);
            ] );
        ( "trace_health",
          J.Obj
            [
              ("unmatched_spans", J.Int !unmatched);
              ("dropped_events", J.Int !dropped);
            ] );
        ("envelope", envelope_json);
        ("space", space_json);
      ]
  in
  {
    tr_name = name;
    tr_json = json;
    tr_kib = float_of_int inst.Indexing.Instance.size_bits /. 8192.0;
    tr_ledger_exact = ledger_exact;
    tr_mismatches = !mismatches;
    tr_unmatched = !unmatched;
    tr_events_match = events_match;
    tr_violations = violations;
    tr_fit = fit;
  }

(* Theorems 4/5: amortized append cost vs the lg lg n and lg^2 n / B
   envelopes, constant fitted on the first configuration and verified
   on the rest. *)
let append_envelopes ~smoke =
  let slack = envelope_slack in
  let fit_and_check rows =
    match rows with
    | [] -> (0.0, 0)
    | (_, m0, b0) :: rest ->
        let c = m0 /. b0 in
        let viol =
          List.length
            (List.filter (fun (_, m, b) -> m > (c *. slack *. b) +. 1e-9) rest)
        in
        (c, viol)
  in
  let thm4_rows =
    List.map
      (fun n ->
        let per_op, _ =
          append_cost ~buffered:false ~block_bits:1024 ~mem_blocks:64 ~sigma:64
            ~n ~appends:n
        in
        (n, per_op, Obs.Envelope.thm4_append_ios ~n))
      (if smoke then [ 1024; 4096 ] else [ 4096; 16384; 65536 ])
  in
  let c4, viol4 = fit_and_check thm4_rows in
  let thm5_n = if smoke then 4096 else 16384 in
  let thm5_rows =
    List.map
      (fun block_bits ->
        let per_op, _ =
          append_cost ~buffered:true ~block_bits ~mem_blocks:8 ~sigma:16
            ~n:thm5_n ~appends:(thm5_n / 2)
        in
        (block_bits, per_op, Obs.Envelope.thm5_append_ios ~block_bits ~n:thm5_n))
      (if smoke then [ 1024; 4096 ] else [ 1024; 4096; 16384 ])
  in
  let c5, viol5 = fit_and_check thm5_rows in
  let rows_json label rows =
    J.List
      (List.map
         (fun (k, m, b) ->
           J.Obj
             [
               (label, J.Int k);
               ("ios_per_append", J.Float m);
               ("bound", J.Float b);
             ])
         rows)
  in
  let json =
    J.Obj
      [
        ( "thm4",
          J.Obj
            [
              ("bound", J.String "lg lg n + 1");
              ("rows", rows_json "n" thm4_rows);
              ("c_fit", J.Float c4);
              ("slack", J.Float slack);
              ("violations", J.Int viol4);
            ] );
        ( "thm5",
          J.Obj
            [
              ("bound", J.String "lg^2 n / B + 1");
              ("n", J.Int thm5_n);
              ("rows", rows_json "block_bits" thm5_rows);
              ("c_fit", J.Float c5);
              ("slack", J.Float slack);
              ("violations", J.Int viol5);
            ] );
      ]
  in
  (json, viol4 + viol5)

(* Overhead gate.  There is no uninstrumented build to race against at
   runtime, so disabled-mode cost is bounded transitively: with
   tracing off, the PR 2 gamma-decode hot path must still clear its
   original speedup threshold against the per-bit oracle
   (a >5% guard cost on the decode path would show up here first).
   The enabled-vs-disabled delta on a warm Theorem 2 query is reported
   as the informational price of turning tracing on. *)
let trace_overhead ~smoke =
  assert (not (Obs.Trace.enabled ()));
  let sink = ref 0 in
  let speedup_off =
    gamma_decode_speedup ~sink
      ~iters:(if smoke then 3 else 15)
      ~count:(if smoke then 20_000 else 100_000)
  in
  let gate_min = if smoke then 1.0 else 4.0 in
  (* Warm-query wall clock, tracing off vs on. *)
  let run_query = warm_e2_query ~smoke ~sink in
  let qiters = if smoke then 5 else 30 in
  let t_off = time_per_item_best ~iters:qiters ~items:1 run_query in
  Obs.Trace.enable ~capacity:(1 lsl 16) ();
  let t_on = time_per_item_best ~iters:qiters ~items:1 run_query in
  Obs.Trace.disable ();
  Obs.Trace.clear ();
  let enabled_overhead_pct = (t_on -. t_off) /. t_off *. 100.0 in
  let pass = speedup_off >= gate_min in
  fmt
    "overhead: gamma decode %.1fx vs per-bit reference (min %.1fx, tracing \
     off); warm query %.0f ns off / %.0f ns on (%+.1f%%) (sink=%d)\n"
    speedup_off gate_min t_off t_on enabled_overhead_pct (!sink land 1);
  let json =
    J.Obj
      [
        ("gamma_decode_speedup_tracing_off", J.Float speedup_off);
        ("gate_min", J.Float gate_min);
        ("warm_query_ns_tracing_off", J.Float t_off);
        ("warm_query_ns_tracing_on", J.Float t_on);
        ("enabled_overhead_pct", J.Float enabled_overhead_pct);
        ("pass", J.Bool pass);
      ]
  in
  (json, pass)

let run ~smoke =
  let block_bits = 1024 in
  let n = if smoke then 4096 else 16384 in
  let sigma = 64 in
  let g = Workload.Gen.zipf ~seed:33 ~n ~sigma ~theta:1.0 () in
  let data = g.Workload.Gen.data in
  (* Smoke sizes sit near the envelope's asymptotic floor, where the
     per-query cost of a fixed-width range varies with the wbb
     decomposition shape (frontier size), not just z.  Two queries per
     width calibrate a max-ratio constant on 6 points of that noisy
     distribution — the PR 8-era smoke failure on `static` was a
     calibration artifact, not a cost regression.  Six queries per
     width let even/odd interleaving expose both halves to the same
     decomposition-shape spread. *)
  let per_ell = if smoke then 6 else 2 in
  let queries =
    List.concat_map
      (fun ell ->
        Workload.Queries.fixed_width_ranges ~seed:(40 + ell) ~sigma ~ell
          ~count:per_ell)
      [ 1; 2; 4; 8; 16; 32 ]
  in
  let rows =
    List.map (trace_one ~block_bits ~n ~sigma ~queries data) Registry.campaign
  in
  table
    [ "index"; "KiB"; "ledger"; "diff"; "events"; "spans"; "envelope" ]
    (List.map
       (fun r ->
         [
           r.tr_name;
           Printf.sprintf "%.0f" r.tr_kib;
           (if r.tr_ledger_exact then "exact" else "INEXACT");
           (if r.tr_mismatches = 0 then "ok"
            else Printf.sprintf "%d MISMATCH" r.tr_mismatches);
           (if r.tr_events_match then "ok" else "MISMATCH");
           (if r.tr_unmatched = 0 then "balanced"
            else Printf.sprintf "%d unmatched" r.tr_unmatched);
           (match r.tr_fit with
           | None -> "-"
           | Some c ->
               Printf.sprintf "c=%.2f%s" c
                 (if r.tr_violations > 0 then
                    Printf.sprintf " %d VIOL" r.tr_violations
                  else ""));
         ])
       rows);
  let appends_json, append_violations = append_envelopes ~smoke in
  let overhead_json, overhead_pass = trace_overhead ~smoke in
  let count_rows f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let ledger_failures =
    count_rows (fun r -> if r.tr_ledger_exact then 0 else 1)
  in
  let mismatches = count_rows (fun r -> r.tr_mismatches) in
  let unmatched = count_rows (fun r -> r.tr_unmatched) in
  let event_mismatches =
    count_rows (fun r -> if r.tr_events_match then 0 else 1)
  in
  let envelope_violations =
    count_rows (fun r -> r.tr_violations) + append_violations
  in
  let pass =
    ledger_failures = 0 && mismatches = 0 && unmatched = 0
    && event_mismatches = 0
    && envelope_violations = 0
    && overhead_pass
  in
  write_artifact ~pr:4
    ~label:"query tracing, space ledgers, theorem envelopes" ~smoke
    ~note:" + TRACE_PR4.trace.json"
    ~gate:
      ( pass,
        Printf.sprintf
          "ledger=%d diff=%d unmatched=%d events=%d envelope=%d overhead=%b"
          ledger_failures mismatches unmatched event_mismatches
          envelope_violations overhead_pass )
    [
      ("n", J.Int n);
      ("sigma", J.Int sigma);
      ("block_bits", J.Int block_bits);
      ("queries_per_builder", J.Int (List.length queries));
      ("builders", J.List (List.map (fun r -> r.tr_json) rows));
      ("append_envelopes", appends_json);
      ("overhead", overhead_json);
      ( "gate",
        J.Obj
          [
            ("ledger_failures", J.Int ledger_failures);
            ("differential_mismatches", J.Int mismatches);
            ("unmatched_spans", J.Int unmatched);
            ("event_counter_mismatches", J.Int event_mismatches);
            ("envelope_violations", J.Int envelope_violations);
            ("overhead_pass", J.Bool overhead_pass);
            ("pass", J.Bool pass);
          ] );
    ]
