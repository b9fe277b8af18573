(* One shard of a position-sharded logical index (PR 6).

   The logical string x[0..n-1] is split into [shards] contiguous
   slices; shard i holds x[base_i .. base_i + len_i - 1] re-based to
   local positions 0..len_i-1, indexed on its own device by any of the
   repo's builders.  An alphabet-range query is position-oblivious, so
   it scatters to every shard unchanged, and a shard's local answer
   shifted by [base] is exactly the global answer restricted to the
   shard's slice.  Slices are disjoint and ordered, so the global
   answer is the concatenation of the shifted local answers — no
   dedup, no re-sort, and bit-identical to the unsharded query.  The
   router does that concatenation ([Router.query_batch]).

   Everything mutable a query touches — the device (pool, counters)
   and the instance — is private to the shard, which is
   what lets each shard be owned by one domain with no locking on the
   query path. *)

(* Always-on metrics (PR 9): per-batch service accounting on the
   worker's own domain — the stripe the scrape merges is the worker's,
   so shard parallelism shows up without any locking here. *)
let m_batches = Obs.Metrics.counter "serve_shard_batches_total"
let m_service_seconds = Obs.Metrics.histogram "serve_shard_service_seconds"

type t = {
  ordinal : int;
  base : int;  (** global position of local position 0 *)
  len : int;
  instance : Indexing.Instance.t option;
      (** [None] iff the slice is empty (more shards than positions):
          such a shard answers every query with the empty posting. *)
}

let ordinal t = t.ordinal
let base t = t.base
let len t = t.len
let instance t = t.instance

(* First (n mod k) slices get the extra position. *)
let slice_bounds ~n ~shards i =
  let q = n / shards and r = n mod shards in
  let base = (i * q) + min i r in
  let len = q + if i < r then 1 else 0 in
  (base, len)

let build ~shards ~make_device ~build ~sigma x =
  if shards < 1 then invalid_arg "Shard.build: shards";
  let n = Array.length x in
  Array.init shards (fun i ->
      let base, len = slice_bounds ~n ~shards i in
      let instance =
        if len = 0 then None
        else
          Some (build (make_device i) ~sigma (Array.sub x base len))
      in
      { ordinal = i; base; len; instance })

let device t = Option.map (fun i -> i.Indexing.Instance.device) t.instance

let stats t =
  match device t with
  | None -> Iosim.Stats.create ()
  | Some d -> Iosim.Stats.snapshot (Iosim.Device.stats d)

(* Answer a batch on this shard: the local warm [Instance.run]'s
   answers as they are, complements unmaterialized and positions local — the
   router writes each into the global answer once, shifted by [base].
   Answers are immutable, so rows may share storage with the
   instance's and are safe to publish across domains once a
   happens-before edge exists (the router's countdown latch provides
   it). *)
let run_batch t ranges =
  match t.instance with
  | None ->
      Array.make (Array.length ranges) (Indexing.Answer.Direct Cbitmap.Posting.empty)
  | Some inst ->
      let work () =
        Obs.Metrics.incr m_batches;
        Obs.Metrics.time m_service_seconds (fun () ->
            fst (Indexing.Instance.run inst ~pool:`Warm ranges))
      in
      (* The span is emitted from the calling domain — a router worker
         in [Domains] mode — so shard batches land on their own tid
         track in the exported Chrome trace (PR 9 multi-domain). *)
      if not !Obs.Trace.on then work ()
      else
        Obs.Trace.with_span ~cat:"serve"
          ~attrs:
            [
              ("shard", Obs.Trace.Int t.ordinal);
              ("batch", Obs.Trace.Int (Array.length ranges));
            ]
          "shard_batch" work
