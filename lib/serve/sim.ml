(* Open-loop serving driver (PR 6; tail attribution PR 9).

   Replays a precomputed [Workload.Traffic] schedule against a router:
   queries become due at their scheduled arrival times whether or not
   the server has kept up, and a query's recorded latency is
   completion minus *scheduled arrival* — queueing delay included.
   That is the open-loop discipline: under overload latencies grow
   without bound instead of the load generator politely slowing down
   (the closed-loop artifact known as coordinated omission).

   Queries that are due together are dispatched as one batch (capped
   at [batch_window]) through the router's batched path, so a backlog
   is served with shared decodes — batching under load is the serving
   behaviour being measured, not an optimization hidden from the
   clock.  When nothing is due the driver sleeps until the next
   arrival.

   Tail attribution (PR 9): each dispatched batch records its dispatch
   and completion instants plus the delta, across the batch, of every
   [phase_*_seconds] metrics histogram — the per-phase work the batch
   induced anywhere below (decode, rank, verify, ...).  After the run
   the queries at or above the [tail_quantile] latency (exact order
   statistic, so the tail is never empty) are decomposed into
   queue_wait (dispatch - arrival) plus service (completion -
   dispatch), and each query's service is split across the batch's
   phases in proportion to their measured deltas, with the uncovered
   remainder reported as "other" — so the components sum to the
   measured tail latency, never to a model of it.  Phase deltas are
   meaningful when the driver installs a wallclock metrics clock
   ([Obs.Metrics.set_clock]); under the default logical clock the
   split degrades gracefully to queue_wait + other. *)

(* Always-on metrics: end-to-end latency as seen by the open-loop
   clock, scrapeable alongside the per-layer histograms it subsumes. *)
let m_latency = Obs.Metrics.histogram "serve_latency_seconds"
let m_completed = Obs.Metrics.counter "serve_completed_total"

type attribution = {
  quantile : float;
  threshold : float;
  tail_queries : int;
  tail_seconds : float;
  components : (string * float) list;
}

type result = {
  completed : int;
  wall : float;  (** first arrival to last completion, seconds *)
  offered_duration : float;  (** schedule length, seconds *)
  throughput : float;  (** completed / wall *)
  latency : Obs.Histogram.t;
  batches : int;
  max_batch : int;
  checksum : int;
      (** Order-independent digest over every answer posting; equal
          checksums across shard counts / modes is the at-scale
          bit-identity check (exact equality is asserted separately on
          the template queries). *)
  attribution : attribution;
}

let posting_digest p =
  let h = ref 0 in
  Array.iter (fun v -> h := (!h * 31) + v + 1) (Cbitmap.Posting.to_array p);
  !h land max_int

(* One dispatched batch: queries [b_first, b_first + b_count) of the
   schedule, with the phase-seconds each structure layer accrued while
   the batch was in flight. *)
type batch_log = {
  b_first : int;
  b_count : int;
  b_dispatch : float;
  b_fin : float;
  b_phases : (string * float) list;  (* positive deltas only *)
}

(* Totals of every registered [phase_<name>_seconds] histogram, keyed
   by the phase name.  Phases register lazily on first use, so the
   list can grow between batches; a name absent from the previous
   snapshot had total 0. *)
let phase_totals () =
  List.filter_map
    (fun n ->
      if
        String.length n > 14
        && String.sub n 0 6 = "phase_"
        && Filename.check_suffix n "_seconds"
      then
        let label = String.sub n 6 (String.length n - 14) in
        let total =
          Obs.Histogram.total (Obs.Metrics.snapshot (Obs.Metrics.histogram n))
        in
        Some (label, total)
      else None)
    (Obs.Metrics.names ())

let phase_deltas ~before after =
  List.filter_map
    (fun (label, t1) ->
      let t0 =
        match List.assoc_opt label before with Some v -> v | None -> 0.0
      in
      let d = t1 -. t0 in
      if d > 0.0 then Some (label, d) else None)
    after

(* Decompose the tail.  The threshold is the exact [quantile] order
   statistic of the recorded latencies — not the histogram percentile,
   whose conservative bucket-edge answer can exceed every sample and
   leave the tail empty. *)
let attribute ~quantile ~arrivals logs =
  let nq = List.fold_left (fun a b -> a + b.b_count) 0 logs in
  let lats = Array.make nq 0.0 in
  let j = ref 0 in
  List.iter
    (fun b ->
      for k = 0 to b.b_count - 1 do
        lats.(!j) <- b.b_fin -. arrivals.(b.b_first + k);
        incr j
      done)
    logs;
  let sorted = Array.copy lats in
  Array.sort compare sorted;
  let idx =
    min (nq - 1) (max 0 (int_of_float (quantile *. float_of_int (nq - 1))))
  in
  let threshold = sorted.(idx) in
  let comps = Hashtbl.create 16 in
  let addc name v =
    Hashtbl.replace comps name (v +. Option.value ~default:0.0 (Hashtbl.find_opt comps name))
  in
  let tail_queries = ref 0 and tail_seconds = ref 0.0 in
  List.iter
    (fun b ->
      let service = max 0.0 (b.b_fin -. b.b_dispatch) in
      let dsum = List.fold_left (fun a (_, d) -> a +. d) 0.0 b.b_phases in
      (* Fraction of the batch's service charged to each phase; the
         per-query residual ("other") absorbs both uninstrumented work
         and any excess when phase deltas exceed the service window
         (possible under the logical clock), keeping the sum exact. *)
      let shares =
        if service <= 0.0 || dsum <= 0.0 then []
        else
          let scale = min 1.0 (service /. dsum) in
          List.map (fun (n, d) -> (n, d *. scale)) b.b_phases
      in
      for k = 0 to b.b_count - 1 do
        let arr = arrivals.(b.b_first + k) in
        let lat = b.b_fin -. arr in
        if lat >= threshold then begin
          incr tail_queries;
          tail_seconds := !tail_seconds +. lat;
          let queue_wait = max 0.0 (b.b_dispatch -. arr) in
          addc "queue_wait" queue_wait;
          let covered =
            List.fold_left
              (fun a (n, v) ->
                addc ("phase_" ^ n) v;
                a +. v)
              0.0 shares
          in
          addc "other" (lat -. queue_wait -. covered)
        end
      done)
    logs;
  let components =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun n v acc -> (n, v) :: acc) comps [])
  in
  {
    quantile;
    threshold;
    tail_queries = !tail_queries;
    tail_seconds = !tail_seconds;
    components;
  }

let batch_window = 128
let tail_quantile = 0.99

let run router traffic =
  let n = Workload.Traffic.length traffic in
  if n = 0 then invalid_arg "Sim.run: empty schedule";
  let arrivals = traffic.Workload.Traffic.arrivals in
  let queries = traffic.Workload.Traffic.queries in
  let latency = Obs.Histogram.create () in
  let batches = ref 0 and max_batch = ref 0 and checksum = ref 0 in
  let logs = ref [] in
  (* Phase activity only accrues inside [Router.query_batch], so the
     totals after one batch are the totals before the next: one scan
     per batch, carried forward. *)
  let last_totals = ref (phase_totals ()) in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < n do
    let now = Unix.gettimeofday () -. t0 in
    if arrivals.(!i) > now then
      Unix.sleepf (arrivals.(!i) -. now)
    else begin
      let first = !i in
      while !i < n && !i - first < batch_window && arrivals.(!i) <= now do
        incr i
      done;
      let dispatch = Unix.gettimeofday () -. t0 in
      let answers =
        Router.query_batch router (Array.sub queries first (!i - first))
      in
      let fin = Unix.gettimeofday () -. t0 in
      let totals = phase_totals () in
      let b_phases = phase_deltas ~before:!last_totals totals in
      last_totals := totals;
      logs :=
        { b_first = first; b_count = !i - first; b_dispatch = dispatch;
          b_fin = fin; b_phases }
        :: !logs;
      Array.iteri
        (fun k p ->
          checksum := !checksum lxor posting_digest p;
          let lat = fin -. arrivals.(first + k) in
          Obs.Histogram.add latency lat;
          Obs.Metrics.observe m_latency lat)
        answers;
      Obs.Metrics.incr ~by:(Array.length answers) m_completed;
      incr batches;
      max_batch := max !max_batch (!i - first)
    end
  done;
  let wall = Unix.gettimeofday () -. t0 in
  {
    completed = n;
    wall;
    offered_duration = traffic.Workload.Traffic.duration;
    throughput = float_of_int n /. wall;
    latency;
    batches = !batches;
    max_batch = !max_batch;
    checksum = !checksum;
    attribution = attribute ~quantile:tail_quantile ~arrivals (List.rev !logs);
  }
