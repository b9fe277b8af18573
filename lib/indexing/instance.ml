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

let span t name attrs f =
  Obs.Trace.with_span ~cat:"query"
    ~attrs:(("index", Obs.Trace.Str t.name) :: attrs)
    name f

let traced_query t ~lo ~hi =
  Obs.Metrics.incr m_queries;
  Obs.Metrics.time m_query_seconds (fun () ->
      if not !Obs.Trace.on then t.query ~lo ~hi
      else
        span t "query"
          [ ("lo", Obs.Trace.Int lo); ("hi", Obs.Trace.Int hi) ]
          (fun () -> t.query ~lo ~hi))

let traced_batch t ranges run =
  Obs.Metrics.incr m_batches;
  Obs.Metrics.incr ~by:(Array.length ranges) m_batch_queries;
  if not !Obs.Trace.on then run ()
  else
    span t "query_batch" [ ("batch", Obs.Trace.Int (Array.length ranges)) ] run

(* The one query call.  A cold call prices the request alone; a warm
   one keeps the pool and lets a shard's counters accumulate for the
   router's per-shard report.  A request whose ranges clamp to at most
   one distinct range runs the direct evaluator [query], so it is
   charged exactly what that range costs alone: readahead only pays
   when a second range can read what it fetched. *)
let run t ~pool ranges =
  let dev = t.device in
  (match pool with
  | `Cold ->
      Iosim.Device.clear_pool dev;
      Iosim.Device.reset_stats dev
  | `Warm -> ());
  let before = Iosim.Stats.snapshot (Iosim.Device.stats dev) in
  let plan = Batch.normalize ~sigma:t.sigma ranges in
  let each exec =
    Batch.fan_out plan
      (Array.map (fun (lo, hi) -> exec ~lo ~hi) plan.Batch.uniq)
  in
  let answers =
    if Array.length plan.Batch.uniq <= 1 then each (traced_query t)
    else
      traced_batch t ranges (fun () ->
          match t.batch with Some f -> f ranges | None -> each t.query)
  in
  let after = Iosim.Stats.snapshot (Iosim.Device.stats dev) in
  (answers, Iosim.Stats.diff ~before ~after)

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
  let scrub g = Obs.Metrics.(in_phase verify) (fun () -> g.Integrity.scrub ()) in
  let run () =
    match t.integrity with
    | None -> Ok (traced_query t ~lo ~hi)
    | Some g ->
        let corrupt = scrub g in
        if corrupt = 0 then Ok (traced_query t ~lo ~hi)
        else begin
          let before = Iosim.Stats.ios (Iosim.Device.stats dev) in
          Obs.Metrics.(in_phase repair) (fun () -> g.Integrity.repair ());
          if scrub g <> 0 then Corrupt "repair did not converge"
          else begin
            let cost = Iosim.Stats.ios (Iosim.Device.stats dev) - before in
            Repaired (traced_query t ~lo ~hi, cost)
          end
        end
  in
  try Iosim.Device.with_retries ~attempts dev run
  with Secidx_error.Corrupt msg -> Corrupt msg
