(* The four workloads.

   Each workload derives every input from the seed before anything is
   timed and checks every answer against an oracle that uses no index.
   A run builds the system under test several times (the median build
   time is [setup_s]) and then makes ten identical passes over a
   fixed list of operations, each from the state the build left (pools
   emptied, or a fresh WAL store).  Each workload fixes its operation
   count, sized so that a run takes well under a minute even when the
   host runs twice as slow as usual: a count, not a time limit, so
   both sides of a comparison do the same work and every counter
   repeats exactly.

   Identical passes are what make the timings steady.  The host this
   benchmark was tuned on shares its cores, and other tenants slow it
   by up to 1.6x for a second or more at a time.  Noise of that kind
   only makes an operation slower, and every pass runs the same
   operations from the same state, so a closed-loop operation's timing
   is its minimum over the passes, and the percentiles and throughput
   are computed from those minima.  Read from the best whole pass
   instead, timings still moved up to 17% between seeds.  An open
   loop's latency includes its queueing, which is no single
   operation's, so its samples are pooled over the passes instead.
   Every count must be equal in all passes, and a run where one
   differs fails.

   With [--trace] a run builds once and makes two passes of the same
   size: one untraced (the counters and the reference time), one with
   [Obs.Trace] on and the bench's spans around every call into a layer
   (the per-layer times; see {!Attrib}). *)

module Rng = Hashing.Universal.Rng
module Posting = Cbitmap.Posting
module Stats = Iosim.Stats
module Device = Iosim.Device

let now = Samples.now

type ctx = { seed : int; smoke : bool; trace : bool }

type tally = {
  mutable attempted : int;
  mutable raised : int;
  mutable wrong : int;
  mutable unhealthy : int;  (** 1 when the run's health check failed *)
}

type result = {
  tally : tally;
  metrics : (string * float) list;
  info : (string * Obs.Json.t) list;
  chrome : Obs.Json.t option;
}

let log fmt = Printf.ksprintf prerr_endline fmt
let fi = float_of_int
let div a b = if b = 0.0 then 0.0 else a /. b

(* ---------------------------------------------------------------- *)
(* Shared helpers *)

let fnv h x = (h lxor x) * 0x100000001b3 land max_int
let fnv_ints h a = Array.fold_left fnv h a
let fnv_pairs h a = Array.fold_left (fun h (x, y) -> fnv (fnv h x) y) h a

(* Passes of an untraced run.  The host's fast spells last a second or
   two, so an operation timed in ten short passes meets one more often
   than in five long ones: the same work in five passes left timing
   spreads of 14-27% between seeds.  A traced run's pass is the same
   size, so it covers a tenth of an untraced run's operations. *)
let passes = 10

let median l =
  let _, m, _ = Samples.quartiles l in
  m

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let phase_calls () =
  List.fold_left
    (fun a p -> a + counter ("phase_" ^ p ^ "_total"))
    0 [ "directory"; "rank_select"; "payload" ]

(* Device counters plus pool evictions, summed over devices. *)
type io = { st : Stats.t; evictions : int }

let io_of devs =
  {
    st = Stats.merge (List.map (fun d -> Stats.snapshot (Device.stats d)) devs);
    evictions =
      List.fold_left
        (fun a d -> a + (Iosim.Buffer_pool.counters (Device.pool d)).evictions)
        0 devs;
  }

let io_diff a b =
  { st = Stats.diff ~before:a.st ~after:b.st; evictions = b.evictions - a.evictions }

let io_zero = { st = Stats.create (); evictions = 0 }
let io_add a b = { st = Stats.merge [ a.st; b.st ]; evictions = a.evictions + b.evictions }

(* Back to the state a build leaves, as far as a read sees it: an
   empty pool and fresh counters (which also forgets the head
   position, so the first transfer counts its seek the same way in
   every pass).  A build writes the whole structure through the pool;
   serving starts from the device, not from the build's leftovers. *)
let cold dev =
  Device.clear_pool dev;
  Device.reset_stats dev

let probe devs () = List.fold_left (fun a d -> a + Stats.ios (Device.stats d)) 0 devs

(* Run [f], counting [k] attempted operations, and [k] raised ones if
   it raises. *)
let attempt tally k f =
  tally.attempted <- tally.attempted + k;
  match f () with
  | r -> Some r
  | exception e ->
      tally.raised <- tally.raised + k;
      log "operation raised: %s" (Printexc.to_string e);
      None

let check tally ok = if not ok then tally.wrong <- tally.wrong + 1

(* Run [f] inside the bench span [name] when tracing. *)
let traced tr name f = match tr with None -> f () | Some s -> Attrib.call s name f

(* Gap-coded size of an answer in the paper's output representation:
   the smaller of the set and its complement (§2.1). *)
let answer_bits ~n p =
  if 2 * Posting.cardinal p > n then
    Cbitmap.Gap_codec.encoded_size (Posting.complement ~n p)
  else Cbitmap.Gap_codec.encoded_size p

let ms s q = Samples.quantile s q *. 1e3
let rate ~per_call s = fi (per_call * Samples.count s) /. Samples.total s

(* A timing series: count, exact median and p99, and the highest
   percentile with ten samples beyond it. *)
let series_json s =
  let a = Samples.sorted s in
  let q = Samples.quantile_sorted a in
  Obs.Json.Obj
    ([
       ("count", Obs.Json.Int (Samples.count s));
       ("p50_ms", Obs.Json.Float (q 0.5 *. 1e3));
       ("p99_ms", Obs.Json.Float (q 0.99 *. 1e3));
       ("max_ms", Obs.Json.Float (q 1.0 *. 1e3));
     ]
    @
    match Samples.supported_tail s with
    | Some p ->
        [ ("tail_pct", Obs.Json.Float (p *. 100.0)); ("tail_ms", Obs.Json.Float (q p *. 1e3)) ]
    | None -> [])

(* Counters of one pass's measured queries, shared by every
   workload's per-layer report. *)
type window = {
  queries : int;
  io : io;
  phase_calls : int;
  cache_requests : int;
  cache_hits : int;
  time : float;  (** summed call time of the pass's operations *)
}

let cache () = (counter "indexing_cache_requests_total", counter "indexing_cache_hits_total")

(* [f ()] between counter snapshots over [devs]. *)
let windowed devs f =
  let io0 = io_of devs and ph0 = phase_calls () and req0, hit0 = cache () in
  let r, queries, time = f () in
  let req1, hit1 = cache () in
  ( {
      queries;
      io = io_diff io0 (io_of devs);
      phase_calls = phase_calls () - ph0;
      cache_requests = req1 - req0;
      cache_hits = hit1 - hit0;
      time;
    },
    r )

(* Per-layer metrics every workload reports: counts from the untraced
   pass, times from the traced one.  [root] restricts the phase self
   times to spans under that bench span (the WAL's queries, not its
   flushes). *)
let common_layers ?root ~(w : window) ~(tw : window) (tr : Attrib.t) =
  let q = fi w.queries and tq = fi tw.queries in
  let st = w.io.st in
  let phase_ms p =
    let self =
      match root with None -> Attrib.self tr p | Some r -> Attrib.self_under tr ~root:r p
    in
    div self tq *. 1e3
  in
  [
    ("secidx.directory_ms_per_query", phase_ms "directory");
    ("secidx.rank_select_ms_per_query", phase_ms "rank_select");
    ("secidx.payload_ms_per_query", phase_ms "payload");
    ("secidx.phase_calls_per_query", div (fi w.phase_calls) q);
    ("bitio.decoder_refills_per_query", div (fi (Attrib.instants tr "dec/refill")) tq);
    ("cbitmap.bits_read_per_query", div (fi st.Stats.bits_read) q);
    ("iosim.block_reads_per_query", div (fi st.Stats.block_reads) q);
    ( "iosim.pool_hit_rate",
      div (fi st.Stats.pool_hits)
        (fi (st.Stats.pool_hits + st.Stats.block_reads + st.Stats.block_writes)) );
    ("iosim.seeks_per_query", div (fi st.Stats.seeks) q);
    ("iosim.pool_evictions_per_query", div (fi w.io.evictions) q);
    ("iosim.prefetch_useful_ratio", div (fi st.Stats.prefetch_hits) (fi st.Stats.prefetches));
    ("obs.trace_overhead_pct", div (tw.time -. w.time) w.time *. 100.0);
    ("obs.trace_dropped_events", fi tr.Attrib.dropped);
    ("obs.unattributed_pct", Attrib.unattributed_pct tr);
  ]

(* The end-to-end metrics of a pass that every workload reports;
   [throughput] names the throughput for the workload's operations. *)
let query_e2e ~throughput ~ops_per_s ~lat ~(w : window) ~answer_bits ~space =
  [
    ("throughput_ops", ops_per_s);
    (throughput, ops_per_s);
    ("query_p50_ms", ms lat 0.5);
    ("query_p99_ms", ms lat 0.99);
    ("block_ios_per_query", div (fi (Stats.ios w.io.st)) (fi w.queries));
    ("bits_read_per_answer_bit", div (fi w.io.st.Stats.bits_read) (fi answer_bits));
    ("space_bits_per_symbol", space);
  ]

let query_counts = [ "block_ios_per_query"; "bits_read_per_answer_bit"; "space_bits_per_symbol" ]

(* The serve and indexing layers of the serving workloads: [batches]
   router calls, each to [shards] shards, over [tq] traced queries;
   [open_loop] is the batch size, queue wait p99 and generator lag p99
   of the untraced pass. *)
let serve_layers ~(w : window) ~batches ~shards ~tq ~open_loop tr =
  let busy = List.map snd (Attrib.busy_by_domain tr "shard_batch") in
  let mean_busy = div (List.fold_left ( +. ) 0.0 busy) (fi (List.length busy)) in
  let batch_size, wait_p99, lag_p99 = open_loop in
  [
    ("serve.router_self_ms_per_batch", div (Attrib.self tr "serve.router") batches *. 1e3);
    ( "serve.shard_busy_ms_per_batch",
      div (Attrib.total tr "shard_batch") (batches *. shards) *. 1e3 );
    ("serve.shard_busy_imbalance", div (List.fold_left Float.max 0.0 busy) mean_busy);
    ("serve.materialize_ms_per_query", div (Attrib.self tr "shard_batch") tq *. 1e3);
    ("serve.batch_size_mean", batch_size);
    ("serve.queue_wait_p99_ms", wait_p99);
    ("serve.generator_lag_p99_ms", lag_p99);
    ("indexing.batch_self_ms_per_query", div (Attrib.self tr "query_batch") tq *. 1e3);
    ("indexing.cache_hit_ratio", div (fi w.cache_hits) (fi w.cache_requests));
    ("indexing.cache_requests_per_query", div (fi w.cache_requests) (fi w.queries));
  ]

(* ---------------------------------------------------------------- *)
(* The measurement protocol shared by the workloads. *)

type ('st, 'p) workload = {
  digest : int;  (** of every generated input *)
  invalid : 'p -> string option;  (** why a run's timings are not the system's *)
  build : unit -> 'st;  (** what [setup_s] times *)
  release : 'st -> unit;
  reset : 'st -> unit;  (** back to the state [build] left *)
  pass : Attrib.t option -> 'st -> 'p;
  combine : 'p list -> 'p;
      (** one pass's counts with the timings of all: each closed-loop
          operation's minimum over the passes, the open loop's samples
          pooled *)
  e2e : 'p -> (string * float) list;
  counts : string list;  (** e2e metrics that must repeat exactly *)
  series : 'p -> (string * Samples.t) list;
  layers : w:'p -> tw:'p -> Attrib.t -> (string * float) list;
  probe : 'st -> unit -> int;
  router_span : string;
}

let floats l = Obs.Json.List (List.map (fun x -> Obs.Json.Float x) l)
let min_of f ps = Samples.min_each (List.map f ps)

(* Counts that differ between identical passes fail the run, as a
   wrong answer would: the program is not deterministic. *)
let fail_run tally why =
  log "run failed: %s" why;
  tally.wrong <- tally.wrong + 1

(* A run whose health check fails (host stalls that held up the
   open-loop generator) is marked unhealthy: its answers are right,
   but its timings are the host's, and [--check] and [--compare]
   refuse it. *)
let judge tally wl p =
  match wl.invalid p with
  | None -> ()
  | Some why ->
      log "unhealthy run: %s" why;
      tally.unhealthy <- tally.unhealthy + 1

let pass_from_build wl st =
  wl.reset st;
  wl.pass None st

(* Build at least [reps] times and for about [min_time] seconds (at
   most 50 builds), each after a full major collection so no build pays
   for the previous one's garbage, and make [count] passes, each on the
   latest build.  The builds are spread among the passes, so the
   passes span the whole run rather than its end: a slow spell of the
   host that covers every pass leaves nothing for the per-operation
   minimum to find.  A WAL store builds in 6 ms, where three samples
   are mostly noise. *)
let builds_and_passes ~reps ~min_time ~count wl =
  let st = ref None and times = ref [] in
  let build () =
    Option.iter wl.release !st;
    st := None;
    Gc.full_major ();
    let t0 = now () in
    st := Some (wl.build ());
    times := (now () -. t0) :: !times
  in
  build ();
  let builds =
    max reps (min 50 (int_of_float (Float.ceil (min_time /. List.hd !times))))
  in
  let ps =
    List.init count (fun i ->
        while List.length !times < ((builds * (i + 1)) + count - 1) / count do
          build ()
        done;
        pass_from_build wl (Option.get !st))
  in
  Option.iter wl.release !st;
  (ps, List.rev !times)

let measure ctx tally wl =
  let info = [ ("input_digest", Obs.Json.String (Printf.sprintf "%016x" wl.digest)) ] in
  if not ctx.trace then begin
    let ps, setup =
      if ctx.smoke then builds_and_passes ~reps:1 ~min_time:0.0 ~count:1 wl
      else builds_and_passes ~reps:3 ~min_time:1.0 ~count:passes wl
    in
    let per = List.map wl.e2e ps in
    let names = List.map fst (List.hd per) in
    let across k = List.map (List.assoc k) per in
    List.iter
      (fun k ->
        if List.exists (( <> ) (List.hd (across k))) (across k) then
          fail_run tally (k ^ " differs between identical passes"))
      wl.counts;
    let all = wl.combine ps in
    judge tally wl all;
    ( ("setup_s", median setup) :: wl.e2e all,
      info
      @ [
          ("setup_runs_s", floats setup);
          ("passes", Obs.Json.Obj (List.map (fun k -> (k, floats (across k))) names));
        ]
      @ List.map (fun (k, s) -> (k, series_json s)) (wl.series all),
      None )
  end
  else begin
    let st = wl.build () in
    let w = pass_from_build wl st in
    judge tally wl w;
    wl.reset st;
    let tr = Attrib.start ~router_span:wl.router_span ~probe:(wl.probe st) () in
    let tw = wl.pass (Some tr) st in
    Attrib.finish tr;
    wl.release st;
    ( wl.layers ~w ~tw tr,
      info
      @ [
          ("layers", Obs.Json.List (Attrib.table tr));
          ("traced_wall_s", Obs.Json.Float tr.Attrib.wall);
          ("unmatched_spans", Obs.Json.Int tr.Attrib.unmatched);
          ("max_events_per_op", Obs.Json.Int tr.Attrib.max_op_events);
        ]
      @ List.map (fun (k, s) -> ("traced_" ^ k, series_json s)) (wl.series tw),
      tr.Attrib.first_window )
  end

(* ---------------------------------------------------------------- *)
(* Range oracle over the raw string: an answer to [lo, hi] is right
   iff it is strictly increasing, every position holds a character in
   [lo, hi], and it has as many positions as the string has such
   characters.  Linear in the answer, no index involved. *)

module Oracle = struct
  type t = { data : int array; cum : int array; sigma : int }

  let create ~sigma data =
    let cum = Array.make (sigma + 1) 0 in
    Array.iter (fun c -> cum.(c + 1) <- cum.(c + 1) + 1) data;
    for c = 1 to sigma do
      cum.(c) <- cum.(c) + cum.(c - 1)
    done;
    { data; cum; sigma }

  let expected o ~lo ~hi =
    let lo = max 0 lo and hi = min (o.sigma - 1) hi in
    if lo > hi then 0 else o.cum.(hi + 1) - o.cum.(lo)

  (* Check positions [from, upto) of [p]. *)
  let members o ~lo ~hi p ~from ~upto =
    let n = Array.length o.data in
    let ok = ref true and i = ref from in
    while !ok && !i < upto do
      let x = Posting.get p !i in
      ok :=
        x >= 0 && x < n
        && (!i = 0 || Posting.get p (!i - 1) < x)
        && o.data.(x) >= lo && o.data.(x) <= hi;
      incr i
    done;
    !ok

  let check o ~lo ~hi p =
    Posting.cardinal p = expected o ~lo ~hi
    && members o ~lo ~hi p ~from:0 ~upto:(Posting.cardinal p)
end

(* What a workload fixes and what the seed draws.  A workload's
   definition fixes the composition of its inputs: which characters
   are frequent, the multiset of queries, the planner's table, the
   traffic and the update script; the seed draws a realization: the
   string, and for serve_cold and planner_conj the order of the
   queries.  Drawing the composition per seed made the metrics measure
   luck: on serve_cold the p99 moved 18% between seeds (against 4.5%
   between repeats of one seed) with how many of the few queries
   covering the most frequent characters a seed happened to draw. *)
let shape_seed = 0x51dc

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A Zipf(1) string whose frequency ranking over the alphabet is fixed
   by the workload (the same permutation for every seed). *)
let zipf_string ~seed ~n ~sigma =
  let rank = shuffle (Rng.create ~seed:shape_seed) (Array.init sigma Fun.id) in
  Array.map (fun c -> rank.(c))
    (Workload.Gen.zipf ~permute:false ~seed ~n ~sigma ~theta:1.0 ()).data

(* [count] queries of width [1, max_width] at uniform positions: a
   fixed multiset, in an order drawn from [rng]. *)
let narrow_queries rng ~sigma ~max_width count =
  let fixed = Rng.create ~seed:shape_seed in
  shuffle rng
    (Array.init count (fun _ ->
         let lo = Rng.below fixed sigma in
         (lo, min (sigma - 1) (lo + Rng.below fixed max_width))))

let router_devices r =
  List.filter_map Serve.Shard.device (Array.to_list (Serve.Router.shards r))

let router_space r =
  Array.fold_left
    (fun a s ->
      match Serve.Shard.instance s with
      | Some i -> a + i.Indexing.Instance.size_bits
      | None -> a)
    0 (Serve.Router.shards r)

let build_router ~mode ~shards ~pool_blocks ~sigma data =
  Serve.Router.create ~mode
    (Serve.Shard.build ~shards
       ~make_device:(fun _ ->
         Device.create ~pool_policy:`Segmented ~block_bits:1024
           ~mem_bits:(pool_blocks * 1024) ())
       ~build:(fun dev ~sigma x -> Secidx.Static_index.instance dev ~sigma x)
       ~sigma data)

(* ---------------------------------------------------------------- *)
(* serve_zipf: the serving layer's read traffic through a 2-domain
   router.  Phase A drains batches of 128 (throughput); phase B
   replays an open-loop schedule at a fixed rate, timing each query
   from its scheduled arrival (latency).  The 64 templates are fixed
   with the rest of the composition: drawn per seed, a quarter of them
   wide and the hottest drawing a fifth of the traffic, throughput
   would mostly measure which template happened to be hot. *)

type zipf_pass = {
  zw : window;
  drain : Samples.t;  (** per batch *)
  zbits : int;
  lat : Samples.t;
  wait : Samples.t;
  lag : Samples.t;
  sizes : Samples.t;
  zspace : int;
}

let serve_zipf ctx tally =
  let n = if ctx.smoke then 1 lsl 12 else 1 lsl 18 and sigma = 256 in
  let pool_blocks = if ctx.smoke then 512 else 8192 in
  let batch = 128 in
  (* A pass: eight drain batches (about 1.3 s), then 100 arrivals at
     50 q/s (2 s).  A tenth of the trace's queries take 25-40 ms (wide
     templates, complement answers).  The open loop's latencies are
     pooled over the ten passes: a p99 over 1000 samples has ten beyond
     it, where a p99 over one pass's 100 arrivals is its second
     largest, which moved 26% between seeds.  At 100 q/s the queue in
     front of the heavy queries amplified the host's slow spells: the
     p99 ranged from 77 to 195 ms. *)
  let batches_a = if ctx.smoke then 4 else 8 in
  let rate_b = if ctx.smoke then 400.0 else 50.0 in
  let count_b = if ctx.smoke then 40 else 100 in
  let data = zipf_string ~seed:ctx.seed ~n ~sigma in
  (* One fixed traffic sequence.  Its first [count_b] queries are the
     open loop's trace of (arrival, query) pairs.  The queries after
     them are the drain's.  The seed draws only the string: with the
     drain's order drawn per seed, which queries shared a batch, and
     so a decode, moved bits read per answer bit 1.8% between seeds. *)
  let traffic =
    Workload.Traffic.make ~seed:shape_seed ~sigma ~count:(count_b + (batches_a * batch))
      ~rate:rate_b ()
  in
  let arrivals = Array.sub traffic.arrivals 0 count_b in
  let open_queries = Array.sub traffic.queries 0 count_b in
  let drain = Array.sub traffic.queries count_b (batches_a * batch) in
  let batches = Array.init batches_a (fun i -> Array.sub drain (i * batch) batch) in
  let digest =
    Array.fold_left (fun h a -> fnv h (int_of_float (a *. 1e9))) 0 arrivals
    |> fun h -> Array.fold_left fnv_pairs (fnv_pairs (fnv_ints h data) open_queries) batches
  in
  let oracle = Oracle.create ~sigma data in
  let bits_memo = Hashtbl.create 64 in
  let bits_of range p =
    match Hashtbl.find_opt bits_memo range with
    | Some b -> b
    | None ->
        let b = answer_bits ~n p in
        Hashtbl.add bits_memo range b;
        b
  in
  let call tr router ranges =
    traced tr "serve.router" (fun () -> Serve.Router.query_batch router ranges)
  in
  let phase_a tr router =
    let lat = Samples.create () and bits = ref 0 in
    Array.iter
      (fun ranges ->
        let t0 = now () in
        let answers = attempt tally batch (fun () -> call tr router ranges) in
        Samples.add lat (now () -. t0);
        Option.iter
          (Array.iteri (fun j p ->
               let ((lo, hi) as range) = ranges.(j) in
               check tally (Oracle.check oracle ~lo ~hi p);
               bits := !bits + bits_of range p))
          answers;
        Option.iter Attrib.op_done tr)
      batches;
    ((lat, !bits), batches_a * batch, Samples.total lat)
  in
  (* Phase B: open loop.  Answers are checked in slices of about
     10 us while the generator waits for the next arrival, so checking
     never delays a dispatch.  Drain pauses of the traced run shift the
     schedule. *)
  let phase_b tr router =
    let lat = Samples.create () and wait = Samples.create () in
    let lag = Samples.create () and sizes = Samples.create () in
    let pending = Queue.create () in
    let step_checks until =
      while (not (Queue.is_empty pending)) && now () < until do
        let lo, hi, p, from = Queue.peek pending in
        let upto = min (Posting.cardinal p) (!from + 1024) in
        if not (Oracle.members oracle ~lo ~hi p ~from:!from ~upto) then begin
          check tally false;
          ignore (Queue.pop pending)
        end
        else if upto = Posting.cardinal p then begin
          check tally (upto = Oracle.expected oracle ~lo ~hi);
          ignore (Queue.pop pending)
        end
        else from := upto
      done
    in
    let start = ref (now () +. 0.01) and i = ref 0 in
    while !i < count_b do
      let due = !start +. arrivals.(!i) in
      if now () < due then begin
        (* Check until 2 ms before the arrival, then spin: a minor
           collection in the last check slice stops every domain and
           must not reach the arrival.  The generator never sleeps, so
           it never waits for a wake-up. *)
        step_checks (due -. 0.002);
        Samples.spin_until due;
        Samples.add lag (now () -. due)
      end;
      let t = now () in
      let j = ref (!i + 1) in
      while !j < count_b && !j - !i < batch && !start +. arrivals.(!j) <= t do
        incr j
      done;
      let ranges = Array.sub open_queries !i (!j - !i) in
      let answers = attempt tally (!j - !i) (fun () -> call tr router ranges) in
      let finished = now () in
      for k = !i to !j - 1 do
        let due = !start +. arrivals.(k) in
        Samples.add lat (finished -. due);
        Samples.add wait (t -. due)
      done;
      Samples.add sizes (fi (!j - !i));
      Option.iter
        (Array.iteri (fun k p ->
             let lo, hi = ranges.(k) in
             Queue.push (lo, hi, p, ref 0) pending))
        answers;
      i := !j;
      Option.iter
        (fun s ->
          let d0 = now () in
          Attrib.op_done s;
          start := !start +. (now () -. d0))
        tr
    done;
    step_checks infinity;
    (lat, wait, lag, sizes)
  in
  measure ctx tally
    {
      digest;
      (* The smoke run shares the machine with the rest of the test
         suite, and its timings mean nothing: it does not judge them. *)
      invalid =
        (fun p ->
          let lag = ms p.lag 0.99 in
          if lag > 1.0 && not ctx.smoke then
            Some (Printf.sprintf "open-loop generator lag p99 %.2f ms > 1 ms" lag)
          else None);
      build =
        (fun () ->
          build_router ~mode:Serve.Router.Domains ~shards:2 ~pool_blocks ~sigma data);
      release = Serve.Router.shutdown;
      reset = (fun r -> List.iter cold (router_devices r));
      pass =
        (fun tr r ->
          let zw, (drain, zbits) = windowed (router_devices r) (fun () -> phase_a tr r) in
          let lat, wait, lag, sizes = phase_b tr r in
          { zw; drain; zbits; lat; wait; lag; sizes; zspace = router_space r });
      combine =
        (fun ps ->
          let pool f = Samples.concat (List.map f ps) in
          {
            (List.hd ps) with
            drain = min_of (fun p -> p.drain) ps;
            lat = pool (fun p -> p.lat);
            wait = pool (fun p -> p.wait);
            lag = pool (fun p -> p.lag);
            sizes = pool (fun p -> p.sizes);
          });
      e2e =
        (fun p ->
          query_e2e ~throughput:"query_throughput_qps" ~ops_per_s:(rate ~per_call:batch p.drain)
            ~lat:p.lat ~w:p.zw ~answer_bits:p.zbits ~space:(fi p.zspace /. fi n));
      counts = query_counts;
      series = (fun p -> [ ("query_latency", p.lat); ("generator_lag", p.lag) ]);
      layers =
        (fun ~w ~tw tr ->
          let tq = tw.zw.queries + count_b in
          (* The open loop's health is read from the untraced pass: the
             traced one's pauses are tracing's, not serving's. *)
          serve_layers ~w:w.zw ~batches:(fi (Attrib.calls tr "serve.router")) ~shards:2.0
            ~tq:(fi tq)
            ~open_loop:(Samples.mean w.sizes, ms w.wait 0.99, ms w.lag 0.99)
            tr
          @ common_layers ~w:w.zw ~tw:{ tw.zw with queries = tq } tr);
      probe = (fun r -> probe (router_devices r));
      router_span = "serve.router";
    }

(* ---------------------------------------------------------------- *)
(* serve_cold: an index about 200 times the buffer pool, selective
   queries from one client through one sequential shard: directory and
   rank-select work, pool misses and seeks dominate; batching and
   domains do nothing here. *)

type cold_pass = { cw : window; clat : Samples.t; cbits : int; cspace : int }

let serve_cold ctx tally =
  let n = if ctx.smoke then 1 lsl 13 else 1 lsl 20 in
  let sigma = if ctx.smoke then 512 else 4096 in
  let pool_blocks = if ctx.smoke then 32 else 256 in
  let count = if ctx.smoke then 300 else 2000 in
  let data = zipf_string ~seed:ctx.seed ~n ~sigma in
  let queries = narrow_queries (Rng.create ~seed:(ctx.seed + 1)) ~sigma ~max_width:8 count in
  let oracle = Oracle.create ~sigma data in
  let run tr router =
    let lat = Samples.create () and bits = ref 0 in
    Array.iter
      (fun (lo, hi) ->
        let t0 = now () in
        let p =
          attempt tally 1 (fun () ->
              traced tr "serve.router" (fun () -> Serve.Router.query router ~lo ~hi))
        in
        Samples.add lat (now () -. t0);
        Option.iter
          (fun p ->
            check tally (Oracle.check oracle ~lo ~hi p);
            bits := !bits + answer_bits ~n p)
          p;
        Option.iter Attrib.op_done tr)
      queries;
    ((lat, !bits), count, Samples.total lat)
  in
  measure ctx tally
    {
      invalid = (fun _ -> None);
      digest = fnv_pairs (fnv_ints 0 data) queries;
      build =
        (fun () ->
          build_router ~mode:Serve.Router.Sequential ~shards:1 ~pool_blocks ~sigma data);
      release = Serve.Router.shutdown;
      reset = (fun r -> List.iter cold (router_devices r));
      pass =
        (fun tr r ->
          let cw, (clat, cbits) = windowed (router_devices r) (fun () -> run tr r) in
          { cw; clat; cbits; cspace = router_space r });
      combine = (fun ps -> { (List.hd ps) with clat = min_of (fun p -> p.clat) ps });
      e2e =
        (fun p ->
          query_e2e ~throughput:"query_throughput_qps" ~ops_per_s:(rate ~per_call:1 p.clat)
            ~lat:p.clat ~w:p.cw ~answer_bits:p.cbits ~space:(fi p.cspace /. fi n));
      counts = query_counts;
      series = (fun p -> [ ("query_latency", p.clat) ]);
      layers =
        (fun ~w ~tw tr ->
          (* One client, one query a call: nothing batches or waits. *)
          let tq = fi tw.cw.queries in
          serve_layers ~w:w.cw ~batches:tq ~shards:1.0 ~tq ~open_loop:(1.0, 0.0, 0.0) tr
          @ common_layers ~w:w.cw ~tw:tw.cw tr);
      probe = (fun r -> probe (router_devices r));
      router_span = "serve.router";
    }

(* ---------------------------------------------------------------- *)
(* planner_conj: cost-based conjunctions over three correlated skewed
   columns with approximate indexes and stored rows, each query cold.
   Half pair a rare driver range with two wide ranges, a quarter are
   1x1x1 point conjunctions anchored on a row whose values are rare, a
   quarter single-column COUNTs.  A pass runs each of 4000 distinct
   queries once, in seed order, so the counts do not depend on the
   order; the expected answers come from the raw columns.

   The table and the query list are the workload's composition; the
   seed draws the order.  [Planner.Cost.calibrate] fits its
   verification constant from the rows of two single characters, so
   on tables drawn from different seeds the planner flipped between
   residual checks (~0.1 ms a query) and exact decodes of a wide
   column (~2 ms): a seed-drawn table measured the calibration's luck,
   not the planner. *)

type conj = { preds : (int * int * int) list; count_only : bool }

type planner_pass = {
  pw : window;
  plat : Samples.t;
  pbits : int;
  verified : int;
  fp_rejected : int;
  est_error : Samples.t;
  deltas : (string * int) list;  (** planner counters *)
  pspace : int;
}

let planner_conj ctx tally =
  let n = if ctx.smoke then 1 lsl 12 else 1 lsl 17 in
  let sigma = if ctx.smoke then 256 else 4096 in
  let count = if ctx.smoke then 120 else 4000 in
  let distinct = if ctx.smoke then 40 else 4000 in
  let names = [| "c0"; "c1"; "c2" |] in
  let cols =
    Workload.Gen.correlated_columns ~seed:shape_seed ~n ~sigma ~cols:3 ~rho:0.8 ~run:16
      ~theta:1.1 ()
    |> List.map (fun (g : Workload.Gen.t) -> g.data)
    |> Array.of_list
  in
  let cum = Array.map (fun c -> (Oracle.create ~sigma c).Oracle.cum) cols in
  let matches (k, lo, hi) = cum.(k).(hi + 1) - cum.(k).(lo) in
  let rare k v = let f = matches (k, v, v) in f >= 1 && f <= 64 in
  let rares = Array.init 3 (fun k -> Array.of_list (List.filter (rare k) (List.init sigma Fun.id))) in
  let rare_rows =
    Array.of_list (List.filter (fun r -> rare 0 cols.(0).(r)) (List.init n Fun.id))
  in
  let rng = Rng.create ~seed:shape_seed in
  let pick a = a.(Rng.below rng (Array.length a)) in
  let make_query i =
    match i mod 4 with
    | 0 | 1 ->
        let d = Rng.below rng 3 in
        let c = pick rares.(d) in
        let wide k w =
          let lo = Rng.below rng (sigma - w) in
          (k, lo, lo + w - 1)
        in
        let others = List.filter (( <> ) d) [ 0; 1; 2 ] in
        {
          preds = (d, max 0 (c - 1), c) :: List.map2 wide others [ sigma / 4; sigma / 3 ];
          count_only = false;
        }
    | 2 ->
        let r = pick rare_rows in
        { preds = List.init 3 (fun k -> (k, cols.(k).(r), cols.(k).(r))); count_only = false }
    | _ ->
        let k = Rng.below rng 3 in
        let w = 1 + Rng.below rng 64 in
        let lo = Rng.below rng (sigma - w) in
        { preds = [ (k, lo, lo + w - 1) ]; count_only = true }
  in
  let list = Array.init distinct make_query in
  let order = shuffle (Rng.create ~seed:(ctx.seed + 1)) (Array.init distinct Fun.id) in
  (* Expected rows: enumerate the rows of the predicate with the fewest
     matches, keep those every other predicate accepts. *)
  let rows_of =
    Array.map
      (fun data ->
        let by = Array.make sigma [] in
        for r = n - 1 downto 0 do
          by.(data.(r)) <- r :: by.(data.(r))
        done;
        by)
      cols
  in
  let expected =
    Array.map
      (fun q ->
        let first =
          List.fold_left (fun best p -> if matches p < matches best then p else best)
            (List.hd q.preds) q.preds
        in
        let k, lo, hi = first in
        let rows =
          List.concat (List.init (hi - lo + 1) (fun i -> rows_of.(k).(lo + i)))
          |> List.filter (fun r ->
                 List.for_all (fun (k, lo, hi) -> cols.(k).(r) >= lo && cols.(k).(r) <= hi) q.preds)
          |> Array.of_list
        in
        Array.sort compare rows;
        Posting.of_sorted_array rows)
      list
  in
  let expected_bits = Array.map (answer_bits ~n) expected in
  let asts =
    Array.map
      (fun q ->
        Planner.Ast.conj
          ~kind:(if q.count_only then Planner.Ast.Count else Planner.Ast.Rows)
          (List.map (fun (k, lo, hi) -> Planner.Ast.range names.(k) ~lo ~hi) q.preds))
      list
  in
  let planner_counters =
    [ "queries"; "plans_considered"; "count_fastpath"; "exact_steps"; "prefilter_steps";
      "residual_steps" ]
  in
  let planner_counter name = counter ("planner_" ^ name ^ "_total") in
  let run tr (t, cost) =
    let lat = Samples.create () and err = Samples.create () in
    let io = ref io_zero and bits = ref 0 and verified = ref 0 and fp = ref 0 in
    let before = List.map planner_counter planner_counters in
    let ph0 = phase_calls () in
    for i = 0 to count - 1 do
      let j = order.(i mod distinct) in
      (* The traced run also times planning alone: Exec.run plans
         inside, where no span reaches. *)
      Option.iter
        (fun s ->
          let nq = Planner.Ast.normalize ~sigma_of:(Ridint.Table.col_sigma t) asts.(j) in
          ignore (Attrib.call s "planner.choose" (fun () -> Planner.Plan.choose cost t nq)))
        tr;
      let t0 = now () in
      let out =
        attempt tally 1 (fun () ->
            traced tr "planner.exec" (fun () -> Planner.Exec.run ~cost t asts.(j)))
      in
      Samples.add lat (now () -. t0);
      Option.iter
        (fun (o : Planner.Exec.outcome) ->
          let e = expected.(j) in
          check tally
            (o.count = Posting.cardinal e
            &&
            match o.rows with Some p -> Posting.equal p e | None -> list.(j).count_only);
          io := io_add !io { st = o.stats; evictions = 0 };
          bits := !bits + expected_bits.(j);
          verified := !verified + o.checked;
          fp := !fp + o.fp_rejected;
          Samples.add err
            ((1.0 +. fi (Stats.ios o.stats)) /. (1.0 +. o.plan.Planner.Plan.est_ios)))
        out;
      Option.iter Attrib.op_done tr
    done;
    {
      pw =
        {
          queries = count;
          io = !io;
          phase_calls = phase_calls () - ph0;
          cache_requests = 0;
          cache_hits = 0;
          time = Samples.total lat;
        };
      plat = lat;
      pbits = !bits;
      verified = !verified;
      fp_rejected = !fp;
      est_error = err;
      deltas =
        List.map2 (fun name b -> (name, planner_counter name - b)) planner_counters before;
      pspace = Ridint.Table.size_bits t;
    }
  in
  measure ctx tally
    {
      invalid = (fun _ -> None);
      digest =
        Array.fold_left
          (fun h q ->
            List.fold_left
              (fun h (k, lo, hi) -> fnv (fnv (fnv h k) lo) hi)
              (fnv h (Bool.to_int q.count_only))
              q.preds)
          (Array.fold_left fnv_ints 0 cols) list;
      build =
        (fun () ->
          let dev = Device.create ~block_bits:1024 ~mem_bits:(1024 * 1024) () in
          let columns =
            Array.to_list
              (Array.mapi
                 (fun k data -> { Ridint.Table.name = names.(k); sigma; values = data })
                 cols)
          in
          let t = Ridint.Table.create_approx ~seed:shape_seed ~store_rows:true dev columns in
          (t, Planner.Cost.calibrate t));
      release = ignore;
      reset = ignore (* every query runs cold *);
      pass = run;
      combine = (fun ps -> { (List.hd ps) with plat = min_of (fun p -> p.plat) ps });
      e2e =
        (fun p ->
          query_e2e ~throughput:"query_throughput_qps" ~ops_per_s:(rate ~per_call:1 p.plat)
            ~lat:p.plat ~w:p.pw ~answer_bits:p.pbits ~space:(fi p.pspace /. fi (3 * n)));
      counts = query_counts;
      series = (fun p -> [ ("query_latency", p.plat) ]);
      layers =
        (fun ~w ~tw tr ->
          let q = fi w.pw.queries and tq = fi tw.pw.queries in
          let d k = fi (List.assoc k w.deltas) in
          let steps = d "exact_steps" +. d "prefilter_steps" +. d "residual_steps" in
          [
            ("planner.plan_ms_per_query", div (Attrib.total tr "planner.choose") tq *. 1e3);
            ("planner.exec_self_ms_per_query", div (Attrib.self tr "planner.exec") tq *. 1e3);
            ("planner.plans_considered_per_query", div (d "plans_considered") q);
            ("planner.exact_step_share", div (d "exact_steps") steps);
            ("planner.prefilter_step_share", div (d "prefilter_steps") steps);
            ("planner.residual_step_share", div (d "residual_steps") steps);
            ("planner.count_fastpath_ratio", div (d "count_fastpath") (d "queries"));
            ("planner.io_estimate_error_p90", Samples.quantile w.est_error 0.9);
            ("ridint.verified_rows_per_query", div (fi w.verified) q);
            ("ridint.fp_rejected_ratio", div (fi w.fp_rejected) (fi w.verified));
          ]
          @ common_layers ~w:w.pw ~tw:tw.pw tr);
      probe = (fun (t, _) -> probe [ Ridint.Table.device t ]);
      router_span = "-";
    }

(* ---------------------------------------------------------------- *)
(* wal_mixed: group commits of 16 updates (set/append/delete in equal
   shares), each followed by one narrow range query, on a WAL store
   that flushes every 64 operations into leveled runs.  A shadow
   string replayed beside the store is the oracle.  Each pass starts
   from a fresh store, so every pass replays the same flushes and
   compactions. *)

type wal_pass = {
  ww : window;  (** the queries *)
  qlat : Samples.t;
  ulat : Samples.t;
  cycle : Samples.t;  (** one update batch plus its query *)
  commit : Samples.t;
  flush : Samples.t;
  compact : Samples.t;
  wbits : int;
  wc : (string * float) list;
  wspace : float;
}

let wal_mixed ctx tally =
  let n0 = if ctx.smoke then 1 lsl 11 else 1 lsl 16 and sigma = 256 in
  (* A pass of 800 cycles takes about 2 s.  With 550, the ten passes
     spanned too little of the host's slow spells, and throughput moved
     23% between seeds; with 1100 a run took 45 s. *)
  let iters = if ctx.smoke then 60 else 800 in
  let group = 16 in
  let data = zipf_string ~seed:ctx.seed ~n:n0 ~sigma in
  (* The update script and the queries are the workload's composition;
     the seed draws the string.  Drawn per seed, the script decided which
     runs exist when a query arrives and what the pool still holds:
     block I/Os per query moved 4.4% between seeds.  The length the
     string will have at each operation bounds its positions. *)
  let rng = Rng.create ~seed:shape_seed in
  let queries = narrow_queries rng ~sigma ~max_width:16 iters in
  let len = ref n0 in
  let script =
    Array.map
      (fun range ->
        ( List.init group (fun _ ->
              match Rng.below rng 3 with
              | 0 -> Wal.Op.Set { pos = Rng.below rng !len; ch = Rng.below rng sigma }
              | 1 ->
                  incr len;
                  Wal.Op.Append { ch = Rng.below rng sigma }
              | _ -> Wal.Op.Delete { pos = Rng.below rng !len }),
          range ))
      queries
  in
  let final_len = !len in
  let config =
    { Wal.Store.flush_threshold = 64; fanout = 4; payload = Wal.Store.Gap; retry_attempts = 3 }
  in
  let fresh () =
    let index_device = Device.create ~block_bits:1024 ~mem_bits:(1024 * 1024) () in
    let store = Wal.Store.create ~index_device config ~sigma ~data in
    cold index_device;
    store
  in
  let run tr store =
    let shadow = Array.make final_len sigma in
    Array.blit data 0 shadow 0 n0;
    let slen = ref n0 in
    let cnt = Array.make (sigma + 1) 0 in
    Array.iter (fun c -> cnt.(c) <- cnt.(c) + 1) data;
    let set pos c =
      cnt.(shadow.(pos)) <- cnt.(shadow.(pos)) - 1;
      shadow.(pos) <- c;
      cnt.(c) <- cnt.(c) + 1
    in
    let apply = function
      | Wal.Op.Set { pos; ch } -> set pos ch
      | Wal.Op.Append { ch } ->
          shadow.(!slen) <- ch;
          cnt.(ch) <- cnt.(ch) + 1;
          incr slen
      | Wal.Op.Delete { pos } -> set pos sigma
    in
    let qlat = Samples.create () and ulat = Samples.create () and cycle = Samples.create () in
    let commit = Samples.create () and flush = Samples.create () in
    let compact = Samples.create () in
    let qio = ref io_zero and qbits = ref 0 and qphase = ref 0 in
    let idev = Wal.Store.index_device store and wdev = Wal.Store.wal_device store in
    let all0 = io_of [ idev ] and log0 = io_of [ wdev ] in
    let wal_bits0 = Wal.Store.wal_bits store in
    Array.iter
      (fun (ops, (lo, hi)) ->
        let fl = Wal.Store.flushes store and co = Wal.Store.compactions store in
        let t0 = now () in
        let ok =
          attempt tally group (fun () ->
              traced tr "wal.update" (fun () -> Wal.Store.update_batch store ops))
        in
        let dt = now () -. t0 in
        Samples.add ulat dt;
        if ok <> None then List.iter apply ops;
        if Wal.Store.compactions store > co then Samples.add compact dt
        else if Wal.Store.flushes store > fl then Samples.add flush dt
        else Samples.add commit dt;
        let io0 = io_of [ idev ] and ph0 = phase_calls () in
        let t0 = now () in
        let a =
          attempt tally 1 (fun () ->
              traced tr "wal.query" (fun () -> Wal.Store.query store ~lo ~hi))
        in
        let qdt = now () -. t0 in
        Samples.add qlat qdt;
        Samples.add cycle (dt +. qdt);
        qio := io_add !qio (io_diff io0 (io_of [ idev ]));
        qphase := !qphase + (phase_calls () - ph0);
        Option.iter
          (fun a ->
            let n = Wal.Store.n store in
            let p = Indexing.Answer.to_posting ~n a in
            let expect = ref 0 in
            for c = max 0 lo to min (sigma - 1) hi do
              expect := !expect + cnt.(c)
            done;
            let members = ref (n = !slen) in
            Posting.iter
              (fun x -> if x >= n || shadow.(x) < lo || shadow.(x) > hi then members := false)
              p;
            check tally (!members && Posting.cardinal p = !expect);
            qbits := !qbits + answer_bits ~n p)
          a;
        Option.iter Attrib.op_done tr)
      script;
    let all = io_diff all0 (io_of [ idev ]) and logd = io_diff log0 (io_of [ wdev ]) in
    {
      ww =
        {
          queries = iters;
          io = !qio;
          phase_calls = !qphase;
          cache_requests = 0;
          cache_hits = 0;
          time = Samples.total qlat +. Samples.total ulat;
        };
      qlat;
      ulat;
      cycle;
      commit;
      flush;
      compact;
      wbits = !qbits;
      wc =
        [
          ("flushes", fi (Wal.Store.flushes store));
          ("compactions", fi (Wal.Store.compactions store));
          ("log_writes", fi logd.st.Stats.block_writes);
          ("index_writes", fi (all.st.Stats.block_writes - !qio.st.Stats.block_writes));
          ("log_bits", fi (Wal.Store.wal_bits store - wal_bits0));
          ("level_runs", fi (List.fold_left ( + ) 0 (Wal.Store.level_counts store)));
          ("updates", fi (iters * group));
        ];
      wspace = fi (Wal.Store.size_bits store) /. fi (Wal.Store.n store);
    }
  in
  measure ctx tally
    {
      invalid = (fun _ -> None);
      digest =
        Array.fold_left
          (fun h (ops, (lo, hi)) ->
            List.fold_left
              (fun h op ->
                match op with
                | Wal.Op.Set { pos; ch } -> fnv (fnv (fnv h 0) pos) ch
                | Wal.Op.Append { ch } -> fnv (fnv h 1) ch
                | Wal.Op.Delete { pos } -> fnv (fnv h 2) pos)
              (fnv (fnv h lo) hi) ops)
          (fnv_ints 0 data) script;
      build = (fun () -> ref (fresh ()));
      release = ignore;
      reset = (fun r -> r := fresh ());
      pass = (fun tr r -> run tr !r);
      combine =
        (fun ps ->
          {
            (List.hd ps) with
            qlat = min_of (fun p -> p.qlat) ps;
            ulat = min_of (fun p -> p.ulat) ps;
            cycle = min_of (fun p -> p.cycle) ps;
          });
      e2e =
        (fun p ->
          let c k = List.assoc k p.wc in
          query_e2e ~throughput:"mixed_throughput_ops"
            ~ops_per_s:(rate ~per_call:(group + 1) p.cycle)
            ~lat:p.qlat ~w:p.ww ~answer_bits:p.wbits ~space:p.wspace
          @ [
              ("update_p50_ms", ms p.ulat 0.5);
              ("update_p99_ms", ms p.ulat 0.99);
              ("write_ios_per_update", (c "log_writes" +. c "index_writes") /. c "updates");
            ]);
      counts = "write_ios_per_update" :: query_counts;
      series = (fun p -> [ ("query_latency", p.qlat); ("update_latency", p.ulat) ]);
      layers =
        (fun ~w ~tw tr ->
          let c k = List.assoc k w.wc in
          let kop = c "updates" /. 1000.0 in
          [
            ("wal.commit_ms_p50", ms tw.commit 0.5);
            ("wal.flush_ms_mean", Samples.mean tw.flush *. 1e3);
            ("wal.compaction_ms_mean", Samples.mean tw.compact *. 1e3);
            ("wal.flushes_per_kop", c "flushes" /. kop);
            ("wal.compactions_per_kop", c "compactions" /. kop);
            ("wal.log_write_ios_per_op", c "log_writes" /. c "updates");
            ("wal.index_write_ios_per_op", c "index_writes" /. c "updates");
            ("wal.log_bits_per_op", c "log_bits" /. c "updates");
            ("wal.level_runs", c "level_runs");
            ("wal.query_block_reads", div (fi w.ww.io.st.Stats.block_reads) (fi w.ww.queries));
          ]
          @ common_layers ~root:"wal.query" ~w:w.ww ~tw:tw.ww tr);
      probe =
        (fun r -> probe [ Wal.Store.index_device !r; Wal.Store.wal_device !r ]);
      router_span = "-";
    }

let run name ctx =
  let tally = { attempted = 0; raised = 0; wrong = 0; unhealthy = 0 } in
  let metrics, info, chrome =
    match name with
    | "serve_zipf" -> serve_zipf ctx tally
    | "serve_cold" -> serve_cold ctx tally
    | "planner_conj" -> planner_conj ctx tally
    | "wal_mixed" -> wal_mixed ctx tally
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  { tally; metrics; info; chrome }
