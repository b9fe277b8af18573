type t = { table : Indexing.Stream_table.t; n : int; sigma : int }

let build ?code device ~sigma x =
  let postings = Indexing.Common.positions_by_char ~sigma x in
  { table = Indexing.Stream_table.build ?code device postings; n = Array.length x; sigma }

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) ->
      Indexing.Answer.Direct (Indexing.Stream_table.read_union t.table ~lo ~hi)

let point_query t c = Indexing.Stream_table.read_one t.table c
let size_bits t = Indexing.Stream_table.size_bits t.table

(* Batched execution (PR 5): one posting cache over the per-character
   streams; a batch of overlapping ranges decodes each character's
   stream once.  Uncached sub-runs of each range are prefetched so the
   payload pass is sequential. *)
let query_batch t ranges =
  let plan = Indexing.Batch.normalize ~sigma:t.sigma ranges in
  let cache =
    Indexing.Batch.Cache.create
      ~decode:(fun c -> Indexing.Stream_table.read_one t.table c)
      ()
  in
  let answer_one (lo, hi) =
    let flush a b =
      if a <= b then begin
        let pos, len = Indexing.Stream_table.payload_span t.table ~lo:a ~hi:b in
        Iosim.Device.prefetch (Indexing.Stream_table.device t.table) ~pos ~len
      end
    in
    let start = ref (-1) in
    for c = lo to hi do
      if Indexing.Batch.Cache.mem cache c then begin
        if !start >= 0 then flush !start (c - 1);
        start := -1
      end
      else if !start < 0 then start := c
    done;
    if !start >= 0 then flush !start hi;
    Indexing.Answer.Direct
      (Cbitmap.Posting.union_many
         (List.init (hi - lo + 1) (fun k ->
              Indexing.Batch.Cache.get cache (lo + k))))
  in
  Indexing.Batch.fan_out plan
    (Array.map answer_one plan.Indexing.Batch.uniq)

let instance ?code device ~sigma x =
  let t = build ?code device ~sigma x in
  {
    Indexing.Instance.name = "bitmap-compressed";
    device;
    n = t.n;
    sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = Some (query_batch t);
    integrity = Some (Indexing.Stream_table.integrity t.table);
  }
