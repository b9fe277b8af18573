(* Always-on metrics (PR 9): query traffic and latency at the
   instance boundary.  Latency uses the pluggable metrics clock
   (logical ticks until a driver installs wallclock), so this layer
   still links nothing beyond [obs]. *)
let m_queries = Obs.Metrics.counter "indexing_queries_total"
let m_batches = Obs.Metrics.counter "indexing_batches_total"
let m_batch_queries = Obs.Metrics.counter "indexing_batch_queries_total"
let m_query_seconds = Obs.Metrics.histogram "indexing_query_seconds"

type t = {
  name : string;
  device : Iosim.Device.t;
  n : int;
  sigma : int;
  size_bits : int;
  query : lo:int -> hi:int -> Answer.t;
  batch : ((int * int) array -> Answer.t array) option;
  integrity : Integrity.t option;
}

let traced_query t ~lo ~hi =
  Obs.Metrics.incr m_queries;
  Obs.Metrics.time m_query_seconds (fun () ->
      if not !Obs.Trace.on then t.query ~lo ~hi
      else
        Obs.Trace.with_span ~cat:"query"
          ~attrs:
            [
              ("index", Obs.Trace.Str t.name);
              ("lo", Obs.Trace.Int lo);
              ("hi", Obs.Trace.Int hi);
            ]
          "query"
          (fun () -> t.query ~lo ~hi))

let query_cold t ~lo ~hi =
  Iosim.Device.clear_pool t.device;
  Iosim.Device.reset_stats t.device;
  let answer = traced_query t ~lo ~hi in
  (answer, Iosim.Stats.snapshot (Iosim.Device.stats t.device))

let run_batch t ranges =
  Obs.Metrics.incr m_batches;
  Obs.Metrics.incr ~by:(Array.length ranges) m_batch_queries;
  let run () =
    match t.batch with
    | Some f -> f ranges
    | None ->
        Batch.run ~sigma:t.sigma
          ~exec:(fun ~lo ~hi -> t.query ~lo ~hi)
          ranges
  in
  if not !Obs.Trace.on then run ()
  else
    Obs.Trace.with_span ~cat:"query"
      ~attrs:
        [
          ("index", Obs.Trace.Str t.name);
          ("batch", Obs.Trace.Int (Array.length ranges));
        ]
      "query_batch" run

(* One cold batch: pool cleared and counters reset once for the whole
   batch — the amortization across the batch's queries (shared decode,
   warm pool, readahead) is exactly what the returned stats price.
   Structures without a batch hook still gain dedup + pool sharing
   through the generic planner. *)
let query_batch t ranges =
  Iosim.Device.clear_pool t.device;
  Iosim.Device.reset_stats t.device;
  let answers = run_batch t ranges in
  (answers, Iosim.Stats.snapshot (Iosim.Device.stats t.device))

(* Warm batch for the serving path (PR 6): no pool clear, no stats
   reset.  A shard worker answers batch after batch against the same
   device; its pool stays warm across batches (that is the serving
   reality being priced) and its counters accumulate for the whole
   run, which is what the router's per-shard balance report reads. *)
let query_batch_warm t ranges = run_batch t ranges

type outcome =
  | Ok of Answer.t
  | Repaired of Answer.t * int
  | Corrupt of string

(* Detect-or-repair query (PR 3): scrub first, repair what the scrub
   found, re-scrub to confirm convergence, then answer on verified
   extents.  The whole pass runs under the device's bounded-retry
   policy so transient read faults surface as retries, not failures.
   Every step is counted I/O: the verification reads, the repair
   writes (reported as the [Repaired] cost in block I/Os) and the
   query itself.  A typed [Corrupt] from an unrepairable extent or a
   decode budget becomes the [Corrupt] outcome — never a wrong
   answer. *)
let verified_query ?(attempts = 3) t ~lo ~hi =
  let dev = t.device in
  let scrub g = Obs.Metrics.phase "verify" (fun () -> g.Integrity.scrub ()) in
  let run () =
    match t.integrity with
    | None -> Ok (traced_query t ~lo ~hi)
    | Some g ->
        let corrupt = scrub g in
        if corrupt = 0 then Ok (traced_query t ~lo ~hi)
        else begin
          let before = Iosim.Stats.ios (Iosim.Device.stats dev) in
          Obs.Metrics.phase "repair" (fun () -> g.Integrity.repair ());
          if scrub g <> 0 then Corrupt "repair did not converge"
          else begin
            let cost = Iosim.Stats.ios (Iosim.Device.stats dev) - before in
            Repaired (traced_query t ~lo ~hi, cost)
          end
        end
  in
  try Iosim.Device.with_retries ~attempts dev run
  with Secidx_error.Corrupt msg -> Corrupt msg
