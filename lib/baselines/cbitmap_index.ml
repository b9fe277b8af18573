module St = Indexing.Stream_table

type t = {
  name : string;
  table : St.t;
  postings : Cbitmap.Posting.t array; (* kept: the table's repair source *)
  arena : St.Arena.t;
  n : int;
  sigma : int;
}

let of_table ~name table ~postings ~n ~sigma =
  { name; table; postings; arena = St.Arena.create (); n; sigma }

let build ?code device ~sigma x =
  let postings = Indexing.Common.positions_by_char ~sigma x in
  of_table ~name:"bitmap-compressed" (St.build ?code device postings)
    ~postings ~n:(Array.length x) ~sigma

let table t = t.table

(* The one range evaluator, for [query] and [query_batch] alike: one
   union over the arena slices [slices] reads for the range. *)
let answer t ~lo ~hi slices =
  Indexing.Answer.Direct (St.Arena.union t.arena (slices ~lo ~hi))

(* Every directory entry of the range is read before any payload, so
   the directory blocks and the payload run each see one pass. *)
let read_slices t ~lo ~hi =
  let es = Obs.Metrics.(in_phase directory) (fun () -> St.extents t.table ~lo ~hi) in
  Obs.Metrics.(in_phase payload) (fun () -> List.map (St.Arena.read t.arena) es)

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) ->
      St.Arena.clear t.arena;
      answer t ~lo ~hi (read_slices t)

(* Batched execution (PR 5): one slice cache over the per-character
   streams; a batch of overlapping ranges decodes each character's
   stream once.  Uncached sub-runs of each range are prefetched so the
   payload pass is sequential. *)
let query_batch t ranges =
  let plan = Indexing.Batch.normalize ~sigma:t.sigma ranges in
  St.Arena.clear t.arena;
  let cache =
    Indexing.Batch.Cache.create
      ~decode:(fun c -> St.Arena.read_stream t.arena t.table c)
      ()
  in
  let cached_slices ~lo ~hi =
    St.prefetch_uncached t.table ~cached:(Indexing.Batch.Cache.mem cache) ~lo ~hi;
    List.init (hi - lo + 1) (fun k -> Indexing.Batch.Cache.get cache (lo + k))
  in
  Indexing.Batch.fan_out plan
    (Array.map
       (fun (lo, hi) -> answer t ~lo ~hi cached_slices)
       plan.Indexing.Batch.uniq)

let instance_of t =
  {
    Indexing.Instance.name = t.name;
    device = St.device t.table;
    n = t.n;
    sigma = t.sigma;
    size_bits = St.size_bits t.table;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = Some (query_batch t);
    integrity = Some (St.integrity t.table ~source:(fun () -> t.postings));
  }

let instance ?code device ~sigma x = instance_of (build ?code device ~sigma x)
