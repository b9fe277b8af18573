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
  mutable counts : Char_counts.t;
  mutable changes : int;
  mutable rebuilds : int;
}

let counts_magic = 0x5DD1
let infinity_char t = t.sigma

let build_parts ~c ~sigma_total device data =
  let tree = Wbb.build ~c ~sigma:sigma_total data in
  let mat, level_bb, leaf_bb =
    Wbb.store_levels tree data
      ~levels:(Wbb.doubling_levels tree.Wbb.height)
      (Buffered_bitmap.build ~c device)
  in
  (Frozen.make tree data ~sigma_total, mat, level_bb, leaf_bb)

(* Counts of the live string, the deletion character included. *)
let live_counts t =
  Cbitmap.Entropy.counts ~sigma:(t.sigma + 1) (Array.sub t.x 0 t.n)

let build ?(c = 8) ?(complement = true) device ~sigma x =
  if Array.length x = 0 then invalid_arg "Dynamic_index.build: empty string";
  let frozen, mat, level_bb, leaf_bb =
    build_parts ~c ~sigma_total:(sigma + 1) device x
  in
  let counts =
    Char_counts.store device ~magic:counts_magic ~width:32
      (Cbitmap.Entropy.counts ~sigma:(sigma + 1) x)
  in
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
    counts;
    changes = 0;
    rebuilds = 0;
  }

let length t = t.n
let char_at t i = t.x.(i)
let rebuilds t = t.rebuilds
let counts t = t.counts

let rebuild t =
  let frozen, mat, level_bb, leaf_bb =
    build_parts ~c:t.c ~sigma_total:(t.sigma + 1) t.device (Array.sub t.x 0 t.n)
  in
  t.frozen <- frozen;
  t.mat <- mat;
  t.level_bb <- level_bb;
  t.leaf_bb <- leaf_bb;
  t.counts <-
    Char_counts.store t.device ~magic:counts_magic ~width:32 (live_counts t);
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
    Char_counts.add t.counts old (-1);
    Char_counts.add t.counts ch 1;
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
  Char_counts.add t.counts ch 1;
  t.changes <- t.changes + 1;
  maybe_rebuild t

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
  Obs.Metrics.(in_phase rank_select) (fun () ->
      for ch = lo to hi do
        z := !z + Char_counts.get t.counts ch
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
  levels + Buffered_bitmap.size_bits t.leaf_bb
  + (Char_counts.region t.counts).Iosim.Device.len

(* The hooks re-resolve the substructures on every call: a rebuild
   swaps every buffered bitmap out, abandoning the old extents. *)
let integrity t =
  Indexing.Integrity.current (fun () ->
      Indexing.Integrity.combine
        (Indexing.Integrity.of_frames (fun () ->
             [ Char_counts.frame t.counts ~live:(fun () -> live_counts t) ])
        :: Buffered_bitmap.integrity t.leaf_bb
        :: List.filter_map
             (Option.map Buffered_bitmap.integrity)
             (Array.to_list t.level_bb)))

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
