(* The production metrics plane end to end (PR 9).
   One scenario file (BENCH_PR9.json) with four gates:

   1. The PR 2 wallclock decode race re-run with the always-on
      registry live and tracing off — the engine must keep its
      speedup with every per-layer counter compiled in and firing.
   2. Counter overhead measured directly: the exact per-query metrics
      wrapping (one counter incr + one timed histogram observe around
      the warm query closure) against the bare closure, best-of
      timing over a query loop, the two loops interleaved.
   3. A Domains-mode serving scenario under a wallclock metrics
      clock: the open-loop sim's tail attribution must decompose the
      tail into components summing to the measured tail seconds.
   4. A multi-domain Chrome trace (TRACE_PR9.trace.json) linted
      in-process: balanced Begin/End on every domain track, with
      shard-worker domains present alongside the main domain.

   The registry scrape lands in BENCH_PR9.json (JSON) and
   METRICS_PR9.prom (Prometheus text exposition). *)

open Common

let run ~smoke =
  Obs.Metrics.reset ();
  Obs.Metrics.set_clock Unix.gettimeofday;
  let sink = ref 0 in

  (* 1. PR 2 decode race, metrics live.  Same shape as the PR 4
     overhead probe: block-engine gamma decode vs per-bit reference. *)
  assert (not (Obs.Trace.enabled ()));
  let decode_speedup =
    gamma_decode_speedup ~sink
      ~iters:(if smoke then 3 else 15)
      ~count:(if smoke then 20_000 else 100_000)
  in
  let decode_gate_min = if smoke then 1.0 else 4.0 in
  let decode_pass = decode_speedup >= decode_gate_min in
  fmt "decode race (metrics live): %.1fx vs per-bit reference (min %.1fx)\n"
    decode_speedup decode_gate_min;

  (* 2. Counter overhead on the warm query path. *)
  let raw_query = warm_e2_query ~smoke ~sink in
  let probe_c = Obs.Metrics.counter "bench_overhead_probe_total" in
  let probe_h = Obs.Metrics.histogram "bench_overhead_probe_seconds" in
  let metered_query () =
    Obs.Metrics.incr probe_c;
    Obs.Metrics.time probe_h raw_query
  in
  (* Many short rounds: a round's time moves about 15% with the host,
     so the best of 7 rounds of 64 queries still missed the floor on
     one side in about 1 run in 10.  56 rounds of 16 (120 of 64 for
     the full run) reach it on both. *)
  let reps = if smoke then 16 else 64 in
  let qiters = if smoke then 56 else 120 in
  let loop f () =
    for _ = 1 to reps do
      f ()
    done
  in
  (* The two loops alternate inside each of [qiters] rounds, each
     keeping its best: a slow spell of the host then weighs on both
     instead of on whichever block of rounds ran second. *)
  let t_raw, t_metered =
    let time f best =
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    in
    let raw = ref infinity and metered = ref infinity in
    loop raw_query ();
    loop metered_query ();
    for i = 1 to qiters do
      if i land 1 = 0 then begin
        time (loop raw_query) raw;
        time (loop metered_query) metered
      end
      else begin
        time (loop metered_query) metered;
        time (loop raw_query) raw
      end
    done;
    let per_item t = t *. 1e9 /. float_of_int reps in
    (per_item !raw, per_item !metered)
  in
  let counter_overhead_pct = (t_metered -. t_raw) /. t_raw *. 100.0 in
  let overhead_max = if smoke then 10.0 else 3.0 in
  let overhead_pass = counter_overhead_pct <= overhead_max in
  fmt
    "counter overhead: warm query %.0f ns bare / %.0f ns metered (%+.2f%%, \
     max %.1f%%)\n"
    t_raw t_metered counter_overhead_pct overhead_max;

  (* 3. WAL workout so the write-path counters have traffic. *)
  let wal_batches = if smoke then 12 else 48 in
  (let config =
     { Wal.Store.flush_threshold = 24; fanout = 2; payload = Wal.Store.Gap;
       retry_attempts = 3 }
   in
   let wsigma = 16 in
   let wg = Workload.Gen.uniform ~seed:21 ~n:512 ~sigma:wsigma in
   let store = Wal.Store.create config ~sigma:wsigma ~data:wg.Workload.Gen.data in
   let rng = Hashing.Universal.Rng.create ~seed:22 in
   for _ = 1 to wal_batches do
     let ops =
       List.init 16 (fun _ ->
           match Hashing.Universal.Rng.below rng 3 with
           | 0 ->
               Wal.Op.Set
                 {
                   pos = Hashing.Universal.Rng.below rng (Wal.Store.n store);
                   ch = Hashing.Universal.Rng.below rng wsigma;
                 }
           | 1 -> Wal.Op.Append { ch = Hashing.Universal.Rng.below rng wsigma }
           | _ ->
               Wal.Op.Delete
                 { pos = Hashing.Universal.Rng.below rng (Wal.Store.n store) })
     in
     Wal.Store.update_batch store ops
   done;
   Wal.Store.flush store;
   sink :=
     !sink
     lxor Indexing.Answer.compressed_bits
            (Wal.Store.query store ~lo:0 ~hi:(wsigma - 1)));

  (* 4. Domains-mode serving with tail attribution. *)
  let n = if smoke then 4096 else 16384 and sigma = 256 in
  let g = Workload.Gen.zipf ~seed:6 ~n ~sigma ~theta:1.0 () in
  let builder = List.hd (Registry.named [ "static" ]) in
  let shards =
    Serve.Shard.build ~shards:2
      ~make_device:(fun _ -> device ~pool_policy:`Segmented ())
      ~build:builder.Registry.b_build ~sigma g.Workload.Gen.data
  in
  let router = Serve.Router.create ~mode:Serve.Router.Domains shards in
  let count = if smoke then 4_000 else 20_000 in
  let probe =
    let t =
      Workload.Traffic.make ~seed:11 ~sigma ~count:(count / 10) ~rate:1e7 ()
    in
    (Serve.Sim.run router t).Serve.Sim.throughput
  in
  (* Mild overload: real queue_wait in the tail without unbounded
     backlog — the wall stays ~count/capacity. *)
  let traffic =
    Workload.Traffic.make ~seed:17 ~sigma ~count ~rate:(2.0 *. probe) ()
  in
  let r = Serve.Sim.run router traffic in
  let a = r.Serve.Sim.attribution in
  let comp_sum =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 a.Serve.Sim.components
  in
  let attribution_sum_pass =
    a.Serve.Sim.tail_queries > 0
    && Float.abs (comp_sum -. a.Serve.Sim.tail_seconds)
       <= 1e-6 *. Float.max 1.0 a.Serve.Sim.tail_seconds
  in
  fmt "serve: %.0f q/s over %d queries; tail p%.0f >= %.3f ms: %d queries\n"
    r.Serve.Sim.throughput r.Serve.Sim.completed
    (a.Serve.Sim.quantile *. 100.0)
    (a.Serve.Sim.threshold *. 1e3)
    a.Serve.Sim.tail_queries;
  table
    [ "tail component"; "seconds"; "share" ]
    (List.map
       (fun (nm, s) ->
         [
           nm;
           Printf.sprintf "%.6f" s;
           Printf.sprintf "%.1f%%" (s /. a.Serve.Sim.tail_seconds *. 100.0);
         ])
       a.Serve.Sim.components);
  fmt "attribution components sum %.6fs vs tail %.6fs: %s\n" comp_sum
    a.Serve.Sim.tail_seconds
    (if attribution_sum_pass then "exact" else "MISMATCH");

  (* 5. Multi-domain trace demo + in-process lint. *)
  Obs.Trace.enable ~capacity:(1 lsl 14) ();
  let demo_ranges =
    Array.init 32 (fun i ->
        let lo = i * 7 mod sigma in
        (lo, min (sigma - 1) (lo + 7)))
  in
  Obs.Trace.with_span ~cat:"serve" "demo_batch" (fun () ->
      ignore (Serve.Router.query_batch router demo_ranges));
  Obs.Trace.disable ();
  Obs.Trace.write_chrome "TRACE_PR9.trace.json";
  Obs.Trace.clear ();
  Serve.Router.shutdown router;
  let lint = Obs.Report.lint_trace "TRACE_PR9.trace.json" in
  let trace_pass = Obs.Report.lint_pass lint && lint.Obs.Report.domains >= 2 in
  fmt "trace lint: %d events on %d domains, %d unmatched\n"
    lint.Obs.Report.events lint.Obs.Report.domains
    lint.Obs.Report.lint_unmatched;

  (* Scrape. *)
  (let oc = open_out "METRICS_PR9.prom" in
   output_string oc (Obs.Metrics.to_prometheus ());
   close_out oc);
  Obs.Metrics.reset_clock ();
  let pass =
    decode_pass && overhead_pass && attribution_sum_pass && trace_pass
  in
  write_artifact ~pr:9
    ~label:"production metrics plane, tail attribution" ~smoke
    ~note:
      (Printf.sprintf " + TRACE_PR9.trace.json + METRICS_PR9.prom (sink=%d)"
         (!sink land 1))
    ~gate:
      ( pass,
        Printf.sprintf "decode=%.2fx overhead=%.2f%% attr_sum=%b trace=%b"
          decode_speedup counter_overhead_pct attribution_sum_pass trace_pass
      )
    [
      ("n", J.Int n);
      ("sigma", J.Int sigma);
      ("builder", J.String builder.Registry.b_name);
      ( "serve",
        J.Obj
          [
            ("queries", J.Int r.Serve.Sim.completed);
            ("throughput_qps", J.Float r.Serve.Sim.throughput);
            ("batches", J.Int r.Serve.Sim.batches);
            ("max_batch", J.Int r.Serve.Sim.max_batch);
            ("latency", Obs.Histogram.to_json r.Serve.Sim.latency);
          ] );
      ( "attribution",
        J.Obj
          [
            ("quantile", J.Float a.Serve.Sim.quantile);
            ("threshold_s", J.Float a.Serve.Sim.threshold);
            ("tail_queries", J.Int a.Serve.Sim.tail_queries);
            ("tail_seconds", J.Float a.Serve.Sim.tail_seconds);
            ("components_sum_s", J.Float comp_sum);
            ( "components",
              J.List
                (List.map
                   (fun (nm, s) ->
                     J.Obj
                       [ ("name", J.String nm); ("seconds", J.Float s) ])
                   a.Serve.Sim.components) );
          ] );
      ("metrics", Obs.Metrics.to_json ());
      ( "gate",
        J.Obj
          [
            ( "decode_race",
              J.Obj
                [
                  ("value", J.Float decode_speedup);
                  ("min", J.Float decode_gate_min);
                  ("pass", J.Bool decode_pass);
                ] );
            ("counter_overhead_pct", J.Float counter_overhead_pct);
            ("counter_overhead_max_pct", J.Float overhead_max);
            ("overhead_pass", J.Bool overhead_pass);
            ("attribution_sum_pass", J.Bool attribution_sum_pass);
            ("trace_lint", Obs.Report.lint_to_json lint);
            ("unmatched_spans", J.Int lint.Obs.Report.lint_unmatched);
            ("trace_pass", J.Bool trace_pass);
            ("pass", J.Bool pass);
          ] );
    ]
