type chain_block = {
  cregion : Iosim.Device.region;
  mutable cbits : int;
  mutable ccount : int;
  cmirror : Bitio.Bitbuf.t; (* full-block shadow of the appended codewords *)
  mutable cframe : Iosim.Frame.t option;
}

type chain = {
  mutable cblocks : chain_block list; (* newest first *)
  mutable clast : int; (* last position in base+chain, -1 if none *)
  base_last : int; (* last position of the build-time bitmap *)
  mutable ctotal : int; (* appended positions *)
}

type storage = {
  table : Indexing.Stream_table.t;
  chains : chain array;
}

type t = {
  device : Iosim.Device.t;
  c : int;
  complement : bool;
  buffered : bool;
  code : Cbitmap.Gap_codec.code;
  sigma : int;
  mutable x : int array;
  mutable n : int;
  mutable n0 : int; (* length at last rebuild *)
  mutable frozen : Frozen.t;
  mutable mat : bool array;
  mutable levels : storage option array;
  mutable leaves : storage;
  mutable counts : Char_counts.t;
  mutable meta_region : Iosim.Device.region;
  mutable meta_bits : int;
  mutable rebuilds : int;
  mutable buffer : (int * int) list; (* buffered appends, oldest first *)
  mutable buffer_len : int;
  buffer_cap : int;
  mutable meta_frame : Iosim.Frame.t option;
  arena : Indexing.Stream_table.Arena.t; (* each query's decoded extents *)
}

let counts_magic = 0x5DC1
let meta_magic = 0x5DC2
let chain_magic = 0x5DC3

let last_of_posting p =
  let k = Cbitmap.Posting.cardinal p in
  if k = 0 then -1 else Cbitmap.Posting.get p (k - 1)

let make_storage ~code device postings =
  {
    table = Indexing.Stream_table.build ~code device postings;
    chains =
      Array.map
        (fun p ->
          let last = last_of_posting p in
          { cblocks = []; clast = last; base_last = last; ctotal = 0 })
        postings;
  }

(* The counts of the live string.  The device copy lags the
   in-memory string by the buffered batch. *)
let live_counts t =
  let counts = Cbitmap.Entropy.counts ~sigma:t.sigma (Array.sub t.x 0 t.n) in
  List.iter (fun (ch, _) -> counts.(ch) <- counts.(ch) - 1) t.buffer;
  counts

let write_meta t =
  (* Node weights, packed linearly by id; visited during descent for
     I/O accounting. *)
  let tree = Frozen.tree t.frozen in
  let pos_bits = Indexing.Common.bits_for (max 2 (Array.length t.x + 1)) in
  t.meta_bits <- pos_bits;
  let buf = Bitio.Bitbuf.create () in
  Array.iter
    (fun v -> Bitio.Bitbuf.write_bits buf ~width:pos_bits (Wbb.weight v))
    tree.Wbb.nodes;
  let f =
    Iosim.Device.with_component t.device "directory" (fun () ->
        Iosim.Frame.store t.device ~magic:meta_magic ~align_block:true
          ~rebuild:(fun () -> buf)
          buf)
  in
  t.meta_frame <- Some f;
  t.meta_region <- Iosim.Frame.payload f

(* Construct the frozen view and per-level storages for [data]. *)
let build_parts ~c ~code ~sigma device data =
  let tree = Wbb.build ~c ~sigma data in
  let mat, levels, leaves =
    Wbb.store_levels tree data
      ~levels:(Wbb.doubling_levels tree.Wbb.height)
      (make_storage ~code device)
  in
  (Frozen.make tree data ~sigma_total:sigma, mat, levels, leaves)

let rebuild t =
  let data = Array.sub t.x 0 t.n in
  let frozen, mat, levels, leaves =
    build_parts ~c:t.c ~code:t.code ~sigma:t.sigma t.device data
  in
  t.frozen <- frozen;
  t.mat <- mat;
  t.levels <- levels;
  t.leaves <- leaves;
  t.counts <-
    Char_counts.store t.device ~magic:counts_magic ~width:32 (live_counts t);
  write_meta t;
  t.n0 <- max 1 t.n

let build ?(c = 8) ?(complement = true) ?(buffered = false)
    ?(code = Cbitmap.Gap_codec.Gamma) device ~sigma x =
  if Array.length x = 0 then invalid_arg "Append_index.build: empty string";
  let n = Array.length x in
  let cap = max 1 (Iosim.Device.block_bits device / (Indexing.Common.bits_for (max 2 sigma) + 40)) in
  let frozen, mat, levels, leaves = build_parts ~c ~code ~sigma device x in
  let counts =
    Char_counts.store device ~magic:counts_magic ~width:32
      (Cbitmap.Entropy.counts ~sigma x)
  in
  let t =
    {
      device;
      c;
      complement;
      buffered;
      code;
      sigma;
      x = Array.copy x;
      n;
      n0 = n;
      frozen;
      mat;
      levels;
      leaves;
      counts;
      meta_region = { Iosim.Device.off = 0; len = 0 };
      meta_bits = 0;
      rebuilds = 0;
      buffer = [];
      buffer_len = 0;
      buffer_cap = cap;
      meta_frame = None;
      arena = Indexing.Stream_table.Arena.create ();
    }
  in
  write_meta t;
  t

let length t = t.n

(* ---- appends ---- *)

(* Write an encoded codeword at an absolute device bit position. *)
let write_code t ~pos buf =
  let len = Bitio.Bitbuf.length buf in
  let i = ref 0 in
  while !i < len do
    let w = min 48 (len - !i) in
    Iosim.Device.write_bits t.device ~pos:(pos + !i) ~width:w
      (Bitio.Bitbuf.read_bits buf ~pos:!i ~width:w);
    i := !i + w
  done

let chain_append t (st : storage) stream pos =
  let ch = st.chains.(stream) in
  let bb = Iosim.Device.block_bits t.device in
  let code_buf = Bitio.Bitbuf.create () in
  Cbitmap.Gap_codec.encode_append ~code:t.code ~last:ch.clast code_buf pos;
  let bits = Bitio.Bitbuf.length code_buf in
  (match ch.cblocks with
  | blk :: _ when blk.cbits + bits <= bb ->
      write_code t ~pos:(blk.cregion.Iosim.Device.off + blk.cbits) code_buf;
      Bitio.Bitbuf.blit code_buf ~src_bit:0 blk.cmirror ~dst_bit:blk.cbits
        ~len:bits;
      (match blk.cframe with
      | Some f -> Iosim.Frame.invalidate f
      | None -> ());
      blk.cbits <- blk.cbits + bits;
      blk.ccount <- blk.ccount + 1
  | _ ->
      (* A codeword broken at the old tail is re-encoded absolutely in
         a fresh block so every block decodes independently of block
         boundaries within the chain. *)
      let code_buf = Bitio.Bitbuf.create () in
      Cbitmap.Gap_codec.encode_append ~code:t.code ~last:(-1) code_buf pos;
      let region =
        Iosim.Device.with_component t.device "chains" (fun () ->
            Iosim.Device.alloc ~align_block:true t.device bb)
      in
      write_code t ~pos:region.Iosim.Device.off code_buf;
      let cmirror = Iosim.Frame.padded ~len:bb (Bitio.Bitbuf.create ()) in
      Bitio.Bitbuf.blit code_buf ~src_bit:0 cmirror ~dst_bit:0
        ~len:(Bitio.Bitbuf.length code_buf);
      ch.cblocks <-
        {
          cregion = region;
          cbits = Bitio.Bitbuf.length code_buf;
          ccount = 1;
          cmirror;
          cframe = None;
        }
        :: ch.cblocks);
  ch.clast <- pos;
  ch.ctotal <- ch.ctotal + 1

let storage t tag = if tag = -1 then t.leaves else Option.get t.levels.(tag)

let storage_of_node t v =
  Option.map
    (fun (tag, stream) -> (storage t tag, stream))
    (Frozen.key ~levels:t.levels v)

let apply_append t ch pos =
  let path = Frozen.route_path t.frozen (ch, pos) in
  List.iter
    (fun v ->
      match storage_of_node t v with
      | Some (st, stream) -> chain_append t st stream pos
      | None -> ())
    path;
  Char_counts.add t.counts ch 1

let ensure_capacity t =
  if t.n >= Array.length t.x then begin
    let bigger = Array.make (2 * Array.length t.x) 0 in
    Array.blit t.x 0 bigger 0 t.n;
    t.x <- bigger
  end

let flush_buffer t =
  (* Group the batch per tile so each chain tail is written while its
     block is hot — the per-tile batching that makes the amortized
     cost of Theorem 5 beat one-I/O-per-append.  Arrival order is
     increasing position, so per-tile lists stay increasing. *)
  let by_tile : (int, storage * int * int list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let by_char : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ch, pos) ->
      (match Hashtbl.find_opt by_char ch with
      | Some r -> incr r
      | None -> Hashtbl.replace by_char ch (ref 1));
      List.iter
        (fun v ->
          match storage_of_node t v with
          | Some (st, stream) -> (
              match Hashtbl.find_opt by_tile v.Wbb.id with
              | Some (_, _, ps) -> ps := pos :: !ps
              | None -> Hashtbl.replace by_tile v.Wbb.id (st, stream, ref [ pos ]))
          | None -> ())
        (Frozen.route_path t.frozen (ch, pos)))
    t.buffer;
  Hashtbl.iter
    (fun _ (st, stream, ps) ->
      List.iter (fun pos -> chain_append t st stream pos) (List.rev !ps))
    by_tile;
  Hashtbl.iter (fun ch delta -> Char_counts.add t.counts ch !delta) by_char;
  t.buffer <- [];
  t.buffer_len <- 0

let maybe_rebuild t =
  if t.n >= 2 * t.n0 then begin
    if t.buffered then flush_buffer t;
    rebuild t;
    t.rebuilds <- t.rebuilds + 1
  end

let append t ch =
  if ch < 0 || ch >= t.sigma then invalid_arg "Append_index.append";
  let pos = t.n in
  ensure_capacity t;
  t.x.(t.n) <- ch;
  t.n <- t.n + 1;
  if t.buffered then begin
    t.buffer <- t.buffer @ [ (ch, pos) ];
    t.buffer_len <- t.buffer_len + 1;
    if t.buffer_len >= t.buffer_cap then flush_buffer t
  end
  else apply_append t ch pos;
  maybe_rebuild t

(* ---- queries ---- *)

let touch_meta t (v : Wbb.node) =
  ignore
    (Iosim.Device.read_bits t.device
       ~pos:(t.meta_region.Iosim.Device.off + (v.Wbb.id * t.meta_bits))
       ~width:t.meta_bits)

module Arena = Indexing.Stream_table.Arena

(* A stored node's arena slices: its chain blocks, newest first, then
   its base extent [base]. *)
let node_slices t (tag, stream) base =
  let chain =
    List.map
      (fun blk ->
        Arena.read_gap t.arena t.device ~code:t.code
          ~pos:blk.cregion.Iosim.Device.off ~count:blk.ccount)
      (storage t tag).chains.(stream).cblocks
  in
  Arena.read t.arena base :: chain

(* The slices of stored nodes as one query reads them: every node's
   base directory entry first, then each node's payload. *)
let read_nodes t keys =
  let bases =
    List.map
      (fun (tag, stream) ->
        Obs.Metrics.(in_phase directory) (fun () ->
            Indexing.Stream_table.extent (storage t tag).table stream))
      keys
  in
  Obs.Metrics.(in_phase payload) (fun () ->
      List.concat (List.map2 (node_slices t) keys bases))

(* One node as a batch's cache miss reads it: its base payload span
   and live chain blocks are prefetched first, so the read is one
   sequential pass. *)
let cached_node t ((tag, stream) as key) =
  let st = storage t tag in
  let pos, len =
    Indexing.Stream_table.payload_span st.table ~lo:stream ~hi:stream
  in
  Iosim.Device.prefetch t.device ~pos ~len;
  List.iter
    (fun blk ->
      Iosim.Device.prefetch t.device ~pos:blk.cregion.Iosim.Device.off
        ~len:blk.cregion.Iosim.Device.len)
    st.chains.(stream).cblocks;
  read_nodes t [ key ]

let in_range t ~lo ~hi pos = t.x.(pos) >= lo && t.x.(pos) <= hi

(* The arena slices answering characters [lo..hi]: the descent's
   metadata, the stored nodes' slices as [fetch] reads them, and each
   boundary leaf's slices filtered by the current character. *)
let range_slices t fetch ~lo ~hi =
  if lo > hi then []
  else begin
    let stored, boundary, visited =
      Frozen.cover t.frozen ~mat:t.mat ~lo ~hi
    in
    Obs.Metrics.(in_phase directory) (fun () -> List.iter (touch_meta t) visited);
    let main = fetch (List.filter_map (Frozen.key ~levels:t.levels) stored) in
    main
    @ List.concat_map
        (fun v ->
          match Frozen.key ~levels:t.levels v with
          | Some key ->
              List.map
                (Arena.filter t.arena (in_range t ~lo ~hi))
                (fetch [ key ])
          | None -> [])
        boundary
  end

(* The one range evaluator, for [query] and [query_batch] alike: the
   count probe, the complement rule, and one union over the arena
   slices of the character ranges, plus the buffered appends that fall
   in them.  A complement reads the characters right of the range
   first, then those left of it. *)
let answer t ~lo ~hi fetch =
  let z = ref 0 in
  Obs.Metrics.(in_phase rank_select) (fun () ->
      for ch = lo to hi do
        z := !z + Char_counts.get t.counts ch
      done);
  let union ranges =
    let p =
      Arena.union t.arena
        (List.concat_map (fun (lo, hi) -> range_slices t fetch ~lo ~hi) ranges)
    in
    let hit (ch, _) = List.exists (fun (lo, hi) -> lo <= ch && ch <= hi) ranges in
    match List.filter hit t.buffer with
    | [] -> p
    | hits -> Cbitmap.Posting.union p (Cbitmap.Posting.of_list (List.map snd hits))
  in
  if !z = 0 && not t.buffered then Indexing.Answer.Direct Cbitmap.Posting.empty
  else if t.complement && 2 * !z > t.n then
    Indexing.Answer.Complement (union [ (hi + 1, t.sigma - 1); (0, lo - 1) ])
  else Indexing.Answer.Direct (union [ (lo, hi) ])

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) ->
      Arena.clear t.arena;
      answer t ~lo ~hi (read_nodes t)

(* Batched execution (PR 5): [answer] per unique query, with each
   stored node's slices (base stream and chain blocks) read at most
   once per batch.  Keys are (level, stream) with -1 for the leaf
   storage, stable across the batch since queries never rebuild. *)
let query_batch t ranges =
  let plan = Indexing.Batch.normalize ~sigma:t.sigma ranges in
  Arena.clear t.arena;
  let cache = Indexing.Batch.Cache.create ~decode:(cached_node t) () in
  Indexing.Batch.fan_out plan
    (Array.map
       (fun (lo, hi) ->
         answer t ~lo ~hi (List.concat_map (Indexing.Batch.Cache.get cache)))
       plan.Indexing.Batch.uniq)

(* Frames over the live chain blocks: blocks appended to since their
   last seal were invalidated; blocks allocated since the last scrub
   are sealed here, from contents the appender just wrote. *)
let chain_frames t (st : storage) =
  Array.fold_left
    (fun acc ch ->
      List.fold_left
        (fun acc blk ->
          match blk.cframe with
          | Some f -> f :: acc
          | None ->
              let f =
                Iosim.Frame.seal t.device ~magic:chain_magic
                  ~rebuild:(fun () -> blk.cmirror)
                  ~image:blk.cmirror blk.cregion
              in
              blk.cframe <- Some f;
              f :: acc)
        acc ch.cblocks)
    [] st.chains

let storages t = Wbb.storages (Frozen.tree t.frozen) t.levels t.leaves
let tables t = List.map (fun ((st : storage), _) -> st.table) (storages t)

(* The hooks re-resolve the storages on every call: a rebuild swaps
   every substructure out, and the old extents are abandoned.  A base
   table repairs from the string's first [n] characters, the ones its
   tree was built over; appends since live in the chains. *)
let integrity t =
  Indexing.Integrity.current (fun () ->
      let tree = Frozen.tree t.frozen and sts = storages t in
      Indexing.Integrity.combine
        (Indexing.Integrity.of_frames (fun () ->
             Char_counts.frame t.counts ~live:(fun () -> live_counts t)
             :: (match t.meta_frame with Some f -> [ f ] | None -> [])
             @ List.concat_map (fun (st, _) -> chain_frames t st) sts)
        :: List.map
             (fun ((st : storage), nodes) ->
               Indexing.Stream_table.integrity st.table ~source:(fun () ->
                   Wbb.level_positions tree t.x nodes))
             sts))

let rebuilds t = t.rebuilds
let counts t = t.counts

let size_bits t =
  let bb = Iosim.Device.block_bits t.device in
  let storage_bits (st : storage) =
    Indexing.Stream_table.size_bits st.table
    + Array.fold_left
        (fun acc ch -> acc + (List.length ch.cblocks * bb))
        0 st.chains
  in
  let levels =
    Array.fold_left
      (fun acc -> function None -> acc | Some st -> acc + storage_bits st)
      0 t.levels
  in
  levels + storage_bits t.leaves
  + (Char_counts.region t.counts).Iosim.Device.len
  + t.meta_region.Iosim.Device.len

let instance_of t =
  let base = if t.buffered then "secidx-append-buffered" else "secidx-append" in
  {
    Indexing.Instance.name = base;
    device = t.device;
    n = t.n;
    sigma = t.sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = Some (query_batch t);
    integrity = Some (integrity t);
  }

let instance ?c ?complement ?buffered device ~sigma x =
  instance_of (build ?c ?complement ?buffered device ~sigma x)
