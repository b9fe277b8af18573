(* Batch query planning: normalize a batch of [lo, hi] ranges into the
   minimal set of distinct clamped queries, plus the bookkeeping to fan
   shared answers back out to the callers' positions.  The execution
   side (one decode per touched extent) lives with each structure —
   the planner only decides *what* runs; a polymorphic decode cache
   (below) is how the structures avoid decoding an extent twice. *)

type plan = {
  queries : int;
  uniq : (int * int) array; (* clamped, deduped, sorted by (lo, hi) *)
  class_of : int array; (* caller slot -> index into [uniq]; -1 = empty *)
}

let empty_class = -1

let normalize ~sigma ranges =
  let queries = Array.length ranges in
  let clamped =
    Array.map
      (fun (lo, hi) -> Common.clamp_range ~sigma ~lo ~hi)
      ranges
  in
  (* Distinct clamped ranges, sorted: ascending [lo] breaks the batch
     into a left-to-right sweep, so consecutive unique queries touch
     adjacent or overlapping extents and the pool/cache stay warm. *)
  let module M = Map.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let index = ref M.empty in
  let count = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some r ->
          if not (M.mem r !index) then begin
            index := M.add r !count !index;
            incr count
          end)
    clamped;
  (* Re-rank in sorted order (Map iterates keys ascending). *)
  let uniq = Array.make !count (0, 0) in
  let rank = Hashtbl.create (max 16 !count) in
  let i = ref 0 in
  M.iter
    (fun r _ ->
      uniq.(!i) <- r;
      Hashtbl.replace rank r !i;
      incr i)
    !index;
  let class_of =
    Array.map
      (function None -> empty_class | Some r -> Hashtbl.find rank r)
      clamped
  in
  { queries; uniq; class_of }

let fan_out plan uniq_answers =
  if Array.length uniq_answers <> Array.length plan.uniq then
    invalid_arg "Batch.fan_out";
  Array.map
    (fun c ->
      if c = empty_class then Answer.Direct Cbitmap.Posting.empty
      else uniq_answers.(c))
    plan.class_of

(* Memoized decode: each structure keys it by whatever identifies one
   of its extents (stream index, block id, ...); within one batch each
   key decodes at most once, every later subscriber reads the cached
   posting.  Not bounded: a batch touches at most the structure's
   extent count, and postings are in-memory answers anyway. *)
module Cache = struct
  (* Always-on metrics (PR 9): aggregate decode-memo efficacy across
     every structure's cache, the batch-layer analogue of the device
     pool hit rate. *)
  let m_requests = Obs.Metrics.counter "indexing_cache_requests_total"
  let m_hits = Obs.Metrics.counter "indexing_cache_hits_total"

  type ('k, 'v) t = {
    table : ('k, 'v) Hashtbl.t;
    decode : 'k -> 'v;
  }

  let create ~decode () = { table = Hashtbl.create 64; decode }

  let get t k =
    Obs.Metrics.incr m_requests;
    match Hashtbl.find_opt t.table k with
    | Some v ->
        Obs.Metrics.incr m_hits;
        v
    | None ->
        let v = t.decode k in
        Hashtbl.replace t.table k v;
        v

  let mem t k = Hashtbl.mem t.table k
end
