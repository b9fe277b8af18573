type t = {
  device : Iosim.Device.t;
  c : int;
  complement : bool;
  sigma : int; (* external alphabet; internally sigma+1 with ∞ = sigma *)
  mutable x : int array;
  mutable n : int;
  mutable n0 : int;
  mutable frozen : Frozen.t;
  mutable mat : bool array;
  mutable level_bb : Buffered_bitmap.t option array;
  mutable leaf_bb : Buffered_bitmap.t;
  mutable counts_region : Iosim.Device.region;
  mutable counts_frame : Iosim.Frame.t option;
  mutable changes : int;
  mutable rebuilds : int;
}

let count_bits = 32
let counts_magic = 0x5DD1
let infinity_char t = t.sigma

let doubling_levels height =
  let rec go l acc = if l > height then acc else go (2 * l) (l :: acc) in
  List.rev (go 1 [])

let build_parts ~c ~sigma_total device data =
  let tree = Wbb.build ~c ~sigma:sigma_total data in
  let frozen = Frozen.make tree ~sigma_total in
  let height = tree.Wbb.height in
  let mat = Array.make (height + 1) false in
  List.iter (fun l -> mat.(l) <- true) (doubling_levels height);
  let level_bb =
    Array.init (height + 1) (fun l ->
        if
          l >= 1 && mat.(l)
          && Array.length tree.Wbb.internal_by_level.(l - 1) > 0
        then
          Some
            (Buffered_bitmap.build ~c device
               (Array.map (Wbb.positions tree) tree.Wbb.internal_by_level.(l - 1)))
        else None)
  in
  let leaf_bb =
    Buffered_bitmap.build ~c device
      (Array.map (Wbb.positions tree) tree.Wbb.leaves)
  in
  (frozen, mat, level_bb, leaf_bb)

let counts_buf t =
  let buf = Bitio.Bitbuf.create () in
  let counts =
    Cbitmap.Entropy.counts ~sigma:(t.sigma + 1) (Array.sub t.x 0 t.n)
  in
  Array.iter (fun v -> Bitio.Bitbuf.write_bits buf ~width:count_bits v) counts;
  buf

let write_counts t =
  let f =
    Iosim.Device.with_component t.device "directory" (fun () ->
        Iosim.Frame.store t.device ~magic:counts_magic ~align_block:true
          ~rebuild:(fun () -> counts_buf t)
          (counts_buf t))
  in
  t.counts_frame <- Some f;
  t.counts_region <- Iosim.Frame.payload f

let build ?(c = 8) ?(complement = true) device ~sigma x =
  if Array.length x = 0 then invalid_arg "Dynamic_index.build: empty string";
  let frozen, mat, level_bb, leaf_bb =
    build_parts ~c ~sigma_total:(sigma + 1) device x
  in
  let t =
    {
      device;
      c;
      complement;
      sigma;
      x = Array.copy x;
      n = Array.length x;
      n0 = Array.length x;
      frozen;
      mat;
      level_bb;
      leaf_bb;
      counts_region = { Iosim.Device.off = 0; len = 0 };
      counts_frame = None;
      changes = 0;
      rebuilds = 0;
    }
  in
  write_counts t;
  t

let length t = t.n
let char_at t i = t.x.(i)
let rebuilds t = t.rebuilds

let rebuild t =
  let frozen, mat, level_bb, leaf_bb =
    build_parts ~c:t.c ~sigma_total:(t.sigma + 1) t.device (Array.sub t.x 0 t.n)
  in
  t.frozen <- frozen;
  t.mat <- mat;
  t.level_bb <- level_bb;
  t.leaf_bb <- leaf_bb;
  write_counts t;
  t.n0 <- max 1 t.n;
  t.changes <- 0;
  t.rebuilds <- t.rebuilds + 1

let bb t tag = if tag = -1 then t.leaf_bb else Option.get t.level_bb.(tag)

let apply_update t op ch pos =
  let path = Frozen.route_path t.frozen (ch, pos) in
  List.iter
    (fun v ->
      match Frozen.key ~levels:t.level_bb v with
      | Some (tag, stream) -> Buffered_bitmap.update (bb t tag) op ~stream ~pos
      | None -> ())
    path

let adjust_count t ch delta =
  let pos = t.counts_region.Iosim.Device.off + (ch * count_bits) in
  let v = Iosim.Device.read_bits t.device ~pos ~width:count_bits in
  Iosim.Device.write_bits t.device ~pos ~width:count_bits (v + delta);
  match t.counts_frame with
  | Some f -> Iosim.Frame.invalidate f
  | None -> ()

let maybe_rebuild t =
  if t.changes >= max 64 (t.n0 / 2) || t.n >= 2 * t.n0 then rebuild t

let change t ~pos ch =
  if pos < 0 || pos >= t.n then invalid_arg "Dynamic_index.change: position";
  if ch < 0 || ch > t.sigma then invalid_arg "Dynamic_index.change: character";
  let old = t.x.(pos) in
  if old <> ch then begin
    apply_update t Buffered_bitmap.Remove old pos;
    apply_update t Buffered_bitmap.Add ch pos;
    t.x.(pos) <- ch;
    adjust_count t old (-1);
    adjust_count t ch 1;
    t.changes <- t.changes + 1;
    maybe_rebuild t
  end

let delete t ~pos = change t ~pos (infinity_char t)

let append t ch =
  if ch < 0 || ch >= t.sigma then invalid_arg "Dynamic_index.append";
  if t.n >= Array.length t.x then begin
    let bigger = Array.make (2 * Array.length t.x) 0 in
    Array.blit t.x 0 bigger 0 t.n;
    t.x <- bigger
  end;
  let pos = t.n in
  t.x.(pos) <- ch;
  t.n <- t.n + 1;
  apply_update t Buffered_bitmap.Add ch pos;
  adjust_count t ch 1;
  t.changes <- t.changes + 1;
  maybe_rebuild t

let read_count t ch =
  Iosim.Device.read_bits t.device
    ~pos:(t.counts_region.Iosim.Device.off + (ch * count_bits))
    ~width:count_bits

(* Stored nodes as one query reads them: adjacent streams of one
   storage coalesce into one range query, and the runs are read right
   to left. *)
let read_runs t keys =
  let runs =
    List.fold_left
      (fun runs (tag, stream) ->
        match runs with
        | (tag', lo, hi) :: rest when tag' = tag && stream = hi + 1 ->
            (tag, lo, stream) :: rest
        | _ -> (tag, stream, stream) :: runs)
      [] keys
  in
  List.rev_map
    (fun (tag, lo, hi) -> Buffered_bitmap.range_query (bb t tag) ~lo ~hi)
    runs

(* The postings answering characters [lo..hi]: the stored nodes' as
   [fetch] reads them, and each boundary leaf's filtered by the
   current character. *)
let range_postings t fetch ~lo ~hi =
  if lo > hi then []
  else begin
    let stored, boundary, _visited =
      Frozen.cover t.frozen ~mat:t.mat ~lo ~hi
    in
    let main = fetch (List.filter_map (Frozen.key ~levels:t.level_bb) stored) in
    main
    @ List.filter_map
        (fun v ->
          Option.map
            (fun key ->
              Cbitmap.Posting.filter
                (fun pos -> t.x.(pos) >= lo && t.x.(pos) <= hi)
                (Cbitmap.Posting.union_many (fetch [ key ])))
            (Frozen.key ~levels:t.level_bb v))
        boundary
  end

(* The one range evaluator, for [query] and [query_batch] alike: the
   count probe, the complement rule, and one union over the character
   ranges' postings.  The complement side must also cover the deletion
   character so that deleted positions are excluded from the final
   answer; it reads the characters right of the range first, then
   those left of it. *)
let answer t ~lo ~hi fetch =
  let z = ref 0 in
  Obs.Metrics.phase "rank_select" (fun () ->
      for ch = lo to hi do
        z := !z + read_count t ch
      done);
  let union ranges =
    Cbitmap.Posting.union_many
      (List.concat_map (fun (lo, hi) -> range_postings t fetch ~lo ~hi) ranges)
  in
  if !z = 0 then Indexing.Answer.Direct Cbitmap.Posting.empty
  else if t.complement && 2 * !z > t.n then
    Indexing.Answer.Complement (union [ (hi + 1, t.sigma); (0, lo - 1) ])
  else Indexing.Answer.Direct (union [ (lo, hi) ])

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) -> answer t ~lo ~hi (read_runs t)

(* Batched execution (PR 5): [answer] per unique query with each
   stored node's posting read at most once per batch.  Updates are
   per-stream ((stream, pos) keys in the buffered bitmaps), so the
   union of per-stream point queries equals the coalesced range query
   the single-query path issues. *)
let query_batch t ranges =
  let plan = Indexing.Batch.normalize ~sigma:t.sigma ranges in
  let cache =
    Indexing.Batch.Cache.create
      ~decode:(fun (tag, stream) ->
        Buffered_bitmap.point_query (bb t tag) stream)
      ()
  in
  Indexing.Batch.fan_out plan
    (Array.map
       (fun (lo, hi) ->
         answer t ~lo ~hi (List.map (Indexing.Batch.Cache.get cache)))
       plan.Indexing.Batch.uniq)

let size_bits t =
  let levels =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some bb -> acc + Buffered_bitmap.size_bits bb)
      0 t.level_bb
  in
  levels + Buffered_bitmap.size_bits t.leaf_bb + t.counts_region.Iosim.Device.len

(* The hooks re-resolve the substructures on every call: a rebuild
   swaps every buffered bitmap out, abandoning the old extents. *)
let integrity t =
  let current () =
    Indexing.Integrity.combine
      (Indexing.Integrity.of_frames (fun () ->
           match t.counts_frame with Some f -> [ f ] | None -> [])
      :: Buffered_bitmap.integrity t.leaf_bb
      :: List.filter_map
           (Option.map Buffered_bitmap.integrity)
           (Array.to_list t.level_bb))
  in
  {
    Indexing.Integrity.scrub =
      (fun () -> (current ()).Indexing.Integrity.scrub ());
    repair = (fun () -> (current ()).Indexing.Integrity.repair ());
  }

let instance_of t =
  {
    Indexing.Instance.name = "secidx-dynamic";
    device = t.device;
    n = t.n;
    sigma = t.sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = Some (query_batch t);
    integrity = Some (integrity t);
  }

let instance ?c ?complement device ~sigma x =
  instance_of (build ?c ?complement device ~sigma x)
