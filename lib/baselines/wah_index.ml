type t = {
  device : Iosim.Device.t;
  n : int;
  sigma : int;
  rows : Iosim.Device.region array; (* one WAH-compressed row per character *)
  words : int array; (* 32-bit word count of each row *)
  frames : Iosim.Frame.t array;
}

let row_magic = 0x3A40

let build device ~sigma x =
  let n = Array.length x in
  let postings = Indexing.Common.positions_by_char ~sigma x in
  (* Each row is one framed extent; the rebuild closure re-encodes it
     from the retained position set (primary data), deterministically,
     hence bit-identical.  Rows get their own ledger component (PR 7)
     so per-structure space reports separate WAH words from other
     structures' payloads on a shared device. *)
  let frames =
    Iosim.Device.with_component device "wah_rows" (fun () ->
        Array.map
          (fun posting ->
            let enc () = Cbitmap.Wah.to_buf (Cbitmap.Wah.encode ~n posting) in
            Iosim.Frame.store ~magic:row_magic ~align_block:true ~rebuild:enc
              device (enc ()))
          postings)
  in
  {
    device;
    n;
    sigma;
    rows = Array.map Iosim.Frame.payload frames;
    words =
      Array.map
        (fun p -> Cbitmap.Wah.word_count (Cbitmap.Wah.encode ~n p))
        postings;
    frames;
  }

(* Decode one row through the device (counted reads, word stream). *)
let read_row t c =
  let d = Iosim.Device.decoder t.device ~pos:t.rows.(c).Iosim.Device.off in
  Cbitmap.Wah.decode
    (Cbitmap.Wah.of_decoder d ~words:t.words.(c) ~bit_length:t.n)

let union_rows ~lo ~hi read =
  Obs.Metrics.(in_phase payload) (fun () ->
      Cbitmap.Posting.union_many (List.init (hi - lo + 1) (fun k -> read (lo + k))))

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) ->
      Indexing.Answer.Direct (union_rows ~lo ~hi (read_row t))

(* Batched execution (PR 5): each character's row decodes at most once
   per batch; rows not yet cached are prefetched region by region
   (rows are separate block-aligned extents, so each prefetch is one
   sequential pass). *)
let query_batch t ranges =
  let plan = Indexing.Batch.normalize ~sigma:t.sigma ranges in
  let cache = Indexing.Batch.Cache.create ~decode:(read_row t) () in
  let answer_one (lo, hi) =
    for c = lo to hi do
      if not (Indexing.Batch.Cache.mem cache c) then
        Iosim.Device.prefetch t.device ~pos:t.rows.(c).Iosim.Device.off
          ~len:t.rows.(c).Iosim.Device.len
    done;
    Indexing.Answer.Direct
      (union_rows ~lo ~hi (Indexing.Batch.Cache.get cache))
  in
  Indexing.Batch.fan_out plan
    (Array.map answer_one plan.Indexing.Batch.uniq)

let size_bits t =
  Array.fold_left
    (fun acc (r : Iosim.Device.region) -> acc + r.len)
    0 t.rows

let instance device ~sigma x =
  let t = build device ~sigma x in
  {
    Indexing.Instance.name = "bitmap-wah";
    device;
    n = t.n;
    sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = Some (query_batch t);
    integrity =
      Some (Indexing.Integrity.of_frames (fun () -> Array.to_list t.frames));
  }
