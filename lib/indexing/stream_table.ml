type layout = Gap | Hybrid of { universe : int; chunk : int }

type t = {
  device : Iosim.Device.t;
  code : Cbitmap.Gap_codec.code;
  layout : layout;
  nstreams : int;
  off_bits : int;
  count_bits : int;
  dir : Iosim.Device.region; (* (offset, count) per stream *)
  payload : Iosim.Device.region;
  dir_frame : Iosim.Frame.t;
  payload_frame : Iosim.Frame.t;
}

(* Frame magics for the two extent kinds (see DESIGN.md). *)
let dir_magic = 0x5D01
let payload_magic = 0x5D02

(* The table's two extents as [postings] lay them out, with the
   directory's field widths: the payload, recording each stream's
   offset, then a directory of just-wide-enough (offset, count)
   fields.  Deterministic, so a repair that re-encodes the same
   postings writes the same bits. *)
let encode ~code ~layout postings =
  let payload_buf = Bitio.Bitbuf.create () in
  let offs = Array.make (Array.length postings) 0 in
  Array.iteri
    (fun i p ->
      offs.(i) <- Bitio.Bitbuf.length payload_buf;
      match layout with
      | Gap -> Cbitmap.Gap_codec.encode ~code payload_buf p
      | Hybrid { universe; chunk } ->
          Cbitmap.Container.encode_chunked ~universe ~chunk payload_buf p)
    postings;
  let off_bits = Common.bits_for (Bitio.Bitbuf.length payload_buf + 1) in
  let max_count =
    Array.fold_left (fun m p -> max m (Cbitmap.Posting.cardinal p)) 0 postings
  in
  let count_bits = Common.bits_for (max_count + 1) in
  let dir_buf = Bitio.Bitbuf.create () in
  Array.iteri
    (fun i p ->
      Bitio.Bitbuf.write_bits dir_buf ~width:off_bits offs.(i);
      Bitio.Bitbuf.write_bits dir_buf ~width:count_bits
        (Cbitmap.Posting.cardinal p))
    postings;
  (dir_buf, payload_buf, off_bits, count_bits)

(* Both extents are framed (magic + length + CRC-32); the table keeps
   no postings.  Repair takes them from the source the owner names
   ({!frames}). *)
let build ?(code = Cbitmap.Gap_codec.Gamma) ?(layout = Gap) device postings =
  (match layout with
  | Gap -> ()
  | Hybrid { universe; chunk } ->
      if universe < 1 || chunk < 1 then
        invalid_arg "Stream_table.build: hybrid layout widths");
  let dir_buf, payload_buf, off_bits, count_bits =
    encode ~code ~layout postings
  in
  let store component magic buf =
    Iosim.Device.with_component device component (fun () ->
        Iosim.Frame.store ~magic ~align_block:true device buf)
  in
  let dir_frame = store "directory" dir_magic dir_buf in
  let payload_frame = store "payload" payload_magic payload_buf in
  {
    device;
    code;
    layout;
    nstreams = Array.length postings;
    off_bits;
    count_bits;
    dir = Iosim.Frame.payload dir_frame;
    payload = Iosim.Frame.payload payload_frame;
    dir_frame;
    payload_frame;
  }

let length t = t.nstreams
let device t = t.device

let dir_entry t i =
  if i < 0 || i >= t.nstreams then invalid_arg "Stream_table: index";
  let entry_bits = t.off_bits + t.count_bits in
  let pos = t.dir.Iosim.Device.off + (i * entry_bits) in
  let off = Iosim.Device.read_bits t.device ~pos ~width:t.off_bits in
  let count =
    Iosim.Device.read_bits t.device ~pos:(pos + t.off_bits)
      ~width:t.count_bits
  in
  (* Defense in depth (the scrub normally catches damage first): an
     offset outside the payload extent can only come from directory
     corruption — refuse to chase it into unrelated extents. *)
  if off > t.payload.Iosim.Device.len then
    Secidx_error.corrupt
      "Stream_table: directory entry %d points at %d, past payload end %d" i
      off t.payload.Iosim.Device.len;
  (off, count)

let count t i = snd (dir_entry t i)

type extent = { table : t; pos : int; count : int }

let extent t i =
  let off, count = dir_entry t i in
  { table = t; pos = t.payload.Iosim.Device.off + off; count }

let extents t ~lo ~hi =
  if lo < 0 || hi >= t.nstreams || lo > hi then
    invalid_arg "Stream_table.extents";
  List.init (hi - lo + 1) (fun k -> extent t (lo + k))

module Arena = struct
  type t = {
    mutable words : int array;
    mutable fill : int; (* words in use by the slices read since [clear] *)
    mutable decoder : (Iosim.Device.t * Bitio.Decoder.t) option;
    scratch : Cbitmap.Posting.scratch;
  }

  let create () =
    { words = [||]; fill = 0; decoder = None; scratch = Cbitmap.Posting.scratch () }

  let clear a =
    a.fill <- 0;
    a.decoder <- None

  let buffer a = a.words

  (* [device]'s decoder at [pos] with an empty cache.  A seek leaves a
     decoder in the state a fresh one starts in, so every extent is
     charged as if it had its own decoder, whatever the code (a
     codeword's charge can depend on where the cache window falls). *)
  let decoder a device ~pos =
    match a.decoder with
    | Some (dev, d) when dev == device ->
        Bitio.Decoder.seek d pos;
        d
    | _ ->
        let d = Iosim.Device.decoder device ~pos in
        a.decoder <- Some (device, d);
        d

  (* The first free word, with room for [count] more after it.
     Growing copies the words in use, so earlier slices stay valid. *)
  let reserve a count =
    let at = a.fill in
    if count > Array.length a.words - at then begin
      let w = Array.make (max (at + count) (2 * Array.length a.words)) 0 in
      Array.blit a.words 0 w 0 at;
      a.words <- w
    end;
    at

  let read_gap a device ~code ~pos ~count =
    let at = reserve a count in
    Cbitmap.Gap_codec.decode_into ~code ~at (decoder a device ~pos) ~count
      a.words;
    Cbitmap.Posting.check_slice a.words ~off:at ~len:count;
    a.fill <- at + count;
    (at, count)

  (* One pass over the extent's codewords, in order: a gap extent
     decodes in place; a container extent decodes whole and is copied.
     Container payloads are self-describing: the directory count is
     not needed to find the end. *)
  let read a ({ table = t; pos; count } : extent) =
    match t.layout with
    | Gap -> read_gap a t.device ~code:t.code ~pos ~count
    | Hybrid { universe; chunk } ->
        let at = reserve a count in
        let p =
          Cbitmap.Container.decode_chunked ~universe ~chunk
            (decoder a t.device ~pos)
        in
        if Cbitmap.Posting.cardinal p <> count then
          Secidx_error.corrupt
            "Stream_table: container extent holds %d positions, directory says %d"
            (Cbitmap.Posting.cardinal p) count;
        let k = ref at in
        Cbitmap.Posting.iter
          (fun v ->
            Array.unsafe_set a.words !k v;
            incr k)
          p;
        a.fill <- at + count;
        (at, count)

  (* Kept positions are copied, not moved: a batch's cached slice is
     read again by later queries. *)
  let filter a keep (off, len) =
    let at = reserve a len in
    let k = ref at in
    for i = off to off + len - 1 do
      let v = Array.unsafe_get a.words i in
      if keep v then begin
        Array.unsafe_set a.words !k v;
        incr k
      end
    done;
    a.fill <- !k;
    (at, !k - at)

  (* Phase spans: the directory entry is decoded first (the "directory"
     phase), then the extent (the "payload" phase). *)
  let read_stream a t i =
    let e = Obs.Metrics.(in_phase directory) (fun () -> extent t i) in
    Obs.Metrics.(in_phase payload) (fun () -> read a e)

  let union a slices =
    Cbitmap.Posting.union_slices ~scratch:a.scratch
      (List.map (fun (off, len) -> (a.words, off, len)) slices)
end

(* Absolute payload bit range covered by streams [lo..hi] — what a
   batched reader hands to [Device.prefetch] before decoding a run.
   The bounding offsets are counted directory reads (mostly pool hits:
   the decode that follows re-reads the same entries). *)
let payload_span t ~lo ~hi =
  if lo < 0 || hi >= t.nstreams || lo > hi then
    invalid_arg "Stream_table.payload_span";
  let off_lo, _ = dir_entry t lo in
  let stop =
    if hi + 1 < t.nstreams then fst (dir_entry t (hi + 1))
    else t.payload.Iosim.Device.len
  in
  (t.payload.Iosim.Device.off + off_lo, stop - off_lo)

(* Readahead for one run: each maximal uncached subrange prefetches
   its payload span; a cached stream in the middle splits the span, so
   no decoded extent is re-read. *)
let prefetch_uncached t ~cached ~lo ~hi =
  let flush a b =
    if a <= b then begin
      let pos, len = payload_span t ~lo:a ~hi:b in
      Iosim.Device.prefetch t.device ~pos ~len
    end
  in
  let rec go start i =
    if i > hi then flush start hi
    else if cached i then begin
      flush start (i - 1);
      go (i + 1) (i + 1)
    end
    else go start (i + 1)
  in
  go lo lo

(* Each frame's repair re-encodes the postings [source] derives. *)
let frames t ~source =
  let rebuild extent () =
    extent (encode ~code:t.code ~layout:t.layout (source ()))
  in
  Iosim.Frame.set_rebuild t.dir_frame (rebuild (fun (dir, _, _, _) -> dir));
  Iosim.Frame.set_rebuild t.payload_frame (rebuild (fun (_, p, _, _) -> p));
  [ t.dir_frame; t.payload_frame ]

let regions t = [ t.dir; t.payload ]

let integrity t ~source = Integrity.of_frames (fun () -> frames t ~source)

(* Structure sizes exclude the two 80-bit frame headers: the headers
   are integrity overhead, constant per extent, and the experiments
   compare payload economics. *)
let size_bits t = t.dir.Iosim.Device.len + t.payload.Iosim.Device.len
let payload_bits t = t.payload.Iosim.Device.len
