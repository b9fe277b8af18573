type t = {
  device : Iosim.Device.t;
  n : int;
  sigma : int;
  rows : Iosim.Device.region array; (* one n-bit row per character *)
  frames : Iosim.Frame.t array;
}

let row_magic = 0xB1A0

let build device ~sigma x =
  let n = Array.length x in
  let postings = Indexing.Common.positions_by_char ~sigma x in
  let row_buf posting =
    let buf = Bitio.Bitbuf.create ~capacity:n () in
    let arr = Cbitmap.Posting.to_array posting in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let set = !j < Array.length arr && arr.(!j) = i in
      if set then incr j;
      Bitio.Bitbuf.write_bit buf set
    done;
    buf
  in
  (* Each row is a framed extent; the rebuild closure re-materializes
     it from the retained position set (primary data).  Rows get their
     own ledger component (PR 7) so per-structure space reports
     separate the literal n-bit rows from other structures' payloads
     on a shared device. *)
  let frames =
    Iosim.Device.with_component device "bitmap_rows" (fun () ->
        Array.map
          (fun posting ->
            Iosim.Frame.store ~magic:row_magic ~align_block:true
              ~rebuild:(fun () -> row_buf posting)
              device (row_buf posting))
          postings)
  in
  { device; n; sigma; rows = Array.map Iosim.Frame.payload frames; frames }

(* Read a row through the device, or-ing set positions into [acc].
   Chunks of up to 32 bits keep the charged widths identical to the
   seed; set bits inside a chunk are popped lowest-first with ctz
   instead of testing all 32 positions. *)
let scan_row t region acc =
  let d = Iosim.Device.decoder t.device ~pos:region.Iosim.Device.off in
  let i = ref 0 in
  while !i < t.n do
    let w = min 32 (t.n - !i) in
    let bits = ref (Bitio.Decoder.read_bits d w) in
    while !bits <> 0 do
      let b = Bitio.Bitops.ctz !bits in
      acc.(!i + w - 1 - b) <- true;
      bits := !bits land (!bits - 1)
    done;
    i := !i + w
  done

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) ->
      let acc = Array.make t.n false in
      Obs.Metrics.(in_phase payload) (fun () ->
          for c = lo to hi do
            scan_row t t.rows.(c) acc
          done);
      let out = ref [] in
      for i = t.n - 1 downto 0 do
        if acc.(i) then out := i :: !out
      done;
      Indexing.Answer.Direct
        (Cbitmap.Posting.of_sorted_array (Array.of_list !out))

let size_bits t =
  (* Rows are block-aligned; charge the padded size. *)
  let bb = Iosim.Device.block_bits t.device in
  Array.fold_left
    (fun acc (r : Iosim.Device.region) -> acc + ((r.len + bb - 1) / bb * bb))
    0 t.rows

let instance device ~sigma x =
  let t = build device ~sigma x in
  {
    Indexing.Instance.name = "bitmap-uncompressed";
    device;
    n = t.n;
    sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = None;
    integrity =
      Some
        (Indexing.Integrity.of_frames (fun () -> Array.to_list t.frames));
  }
