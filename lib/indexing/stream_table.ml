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

let build ?(code = Cbitmap.Gap_codec.Gamma) ?(layout = Gap) device postings =
  (match layout with
  | Gap -> ()
  | Hybrid { universe; chunk } ->
      if universe < 1 || chunk < 1 then
        invalid_arg "Stream_table.build: hybrid layout widths");
  let encode_one buf p =
    match layout with
    | Gap -> Cbitmap.Gap_codec.encode ~code buf p
    | Hybrid { universe; chunk } ->
        Cbitmap.Container.encode_chunked ~universe ~chunk buf p
  in
  (* First pass: payload, recording offsets and counts. *)
  let encode_payload () =
    let payload_buf = Bitio.Bitbuf.create () in
    Array.iter (fun p -> encode_one payload_buf p) postings;
    payload_buf
  in
  let payload_buf = Bitio.Bitbuf.create () in
  let offs = Array.make (Array.length postings) 0 in
  let counts = Array.make (Array.length postings) 0 in
  Array.iteri
    (fun i p ->
      offs.(i) <- Bitio.Bitbuf.length payload_buf;
      counts.(i) <- Cbitmap.Posting.cardinal p;
      encode_one payload_buf p)
    postings;
  (* Second pass: a directory with just-wide-enough fields. *)
  let off_bits = Common.bits_for (Bitio.Bitbuf.length payload_buf + 1) in
  let max_count = Array.fold_left max 0 counts in
  let count_bits = Common.bits_for (max_count + 1) in
  let encode_dir () =
    let dir_buf = Bitio.Bitbuf.create () in
    Array.iteri
      (fun i _ ->
        Bitio.Bitbuf.write_bits dir_buf ~width:off_bits offs.(i);
        Bitio.Bitbuf.write_bits dir_buf ~width:count_bits counts.(i))
      postings;
    dir_buf
  in
  (* Both extents are framed (magic + length + CRC-32) and carry
     rebuild closures: postings are derivable state, so a damaged
     extent is re-encoded from the retained primary sets and rewritten
     in place (the re-encode is deterministic, hence bit-identical). *)
  let dir_frame =
    Iosim.Device.with_component device "directory" (fun () ->
        Iosim.Frame.store ~magic:dir_magic ~align_block:true
          ~rebuild:encode_dir device (encode_dir ()))
  in
  let payload_frame =
    Iosim.Device.with_component device "payload" (fun () ->
        Iosim.Frame.store ~magic:payload_magic ~align_block:true
          ~rebuild:encode_payload device payload_buf)
  in
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

(* One pass over the extent's codewords, in order.  Container payloads
   are self-describing: the directory count is not needed to find the
   end. *)
let decode { table = t; pos; count } =
  let d = Iosim.Device.decoder t.device ~pos in
  match t.layout with
  | Gap -> Cbitmap.Gap_codec.decode ~code:t.code d ~count
  | Hybrid { universe; chunk } -> Cbitmap.Container.decode_chunked ~universe ~chunk d

(* The same pass, into [out] from [at]: a gap extent decodes in place;
   a container extent decodes whole and is copied. *)
let decode_into { table = t; pos; count } out ~at =
  if at < 0 || count > Array.length out - at then
    invalid_arg "Stream_table.decode_into";
  let d = Iosim.Device.decoder t.device ~pos in
  match t.layout with
  | Gap ->
      Cbitmap.Gap_codec.decode_into ~code:t.code ~at d ~count out;
      Cbitmap.Posting.check_slice out ~off:at ~len:count
  | Hybrid { universe; chunk } ->
      let p = Cbitmap.Container.decode_chunked ~universe ~chunk d in
      if Cbitmap.Posting.cardinal p <> count then
        Secidx_error.corrupt
          "Stream_table: container extent holds %d positions, directory says %d"
          (Cbitmap.Posting.cardinal p) count;
      Cbitmap.Posting.iter
        (let k = ref at in
         fun v ->
           Array.unsafe_set out !k v;
           incr k)
        p

let union extents = Cbitmap.Posting.union_many (List.map decode extents)

(* One counted decoder for a sequence of one table's extents, made at
   the first extent.  Each read seeks it to the extent's start, which
   empties its cache: every extent decodes from the state a fresh
   decoder starts in, so the charges are [decode_into]'s to the touch,
   whatever the code (a codeword's charge can depend on where the cache
   window falls). *)
type reader = { rtable : t; mutable dec : Bitio.Decoder.t option }

let reader t = { rtable = t; dec = None }

let read_into r ({ table = t; pos; count } as e) out ~at =
  if t != r.rtable then invalid_arg "Stream_table.read_into: foreign extent";
  match t.layout with
  | Hybrid _ -> decode_into e out ~at
  | Gap ->
      if at < 0 || count > Array.length out - at then
        invalid_arg "Stream_table.read_into";
      let d =
        match r.dec with
        | Some d ->
            Bitio.Decoder.seek d pos;
            d
        | None ->
            let d = Iosim.Device.decoder t.device ~pos in
            r.dec <- Some d;
            d
      in
      Cbitmap.Gap_codec.decode_into ~code:t.code ~at d ~count out;
      Cbitmap.Posting.check_slice out ~off:at ~len:count

(* Phase spans: the directory entry is decoded first (the "directory"
   phase), then the extent (the "payload" phase). *)
let read_one t i =
  let e = Obs.Metrics.phase "directory" (fun () -> extent t i) in
  Obs.Metrics.phase "payload" (fun () -> decode e)

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

(* Every directory entry of the range is read before any payload, so
   the directory blocks and the payload run each see one pass. *)
let read_union t ~lo ~hi =
  let es = Obs.Metrics.phase "directory" (fun () -> extents t ~lo ~hi) in
  Obs.Metrics.phase "payload" (fun () -> union es)

let frames t = [ t.dir_frame; t.payload_frame ]
let scrub t = List.length (Iosim.Frame.scrub (frames t))
let repair t = Iosim.Frame.repair_all (Iosim.Frame.scrub (frames t))
let integrity t = Integrity.of_frames (fun () -> frames t)

(* Structure sizes exclude the two 80-bit frame headers: the headers
   are integrity overhead, constant per extent, and the experiments
   compare payload economics. *)
let size_bits t = t.dir.Iosim.Device.len + t.payload.Iosim.Device.len
let payload_bits t = t.payload.Iosim.Device.len
