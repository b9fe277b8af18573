(* A per-character integer array of the tree indexes — the count
   array of the dynamic indexes (§4.1) or the prefix counts [A] of the
   static ones (§2.1): one [width]-bit field per entry, in one framed,
   block-aligned extent.  An update reads and rewrites a field in place
   and invalidates the frame, so the next scrub reseals it; repair
   recomputes the array from the index's string or tree. *)

type t = { device : Iosim.Device.t; width : int; frame : Iosim.Frame.t }

let encode ~width counts =
  let buf = Bitio.Bitbuf.create () in
  Array.iter (fun v -> Bitio.Bitbuf.write_bits buf ~width v) counts;
  buf

let store device ~magic ~width counts =
  let frame =
    Iosim.Device.with_component device "directory" (fun () ->
        Iosim.Frame.store device ~magic ~align_block:true
          (encode ~width counts))
  in
  { device; width; frame }

let region t = Iosim.Frame.payload t.frame
let field t ch = (region t).Iosim.Device.off + (ch * t.width)
let get t ch = Iosim.Device.read_bits t.device ~pos:(field t ch) ~width:t.width

let add t ch delta =
  let pos = field t ch and width = t.width in
  let v = Iosim.Device.read_bits t.device ~pos ~width in
  Iosim.Device.write_bits t.device ~pos ~width (v + delta);
  Iosim.Frame.invalidate t.frame

let frame t ~live =
  Iosim.Frame.set_rebuild t.frame (fun () -> encode ~width:t.width (live ()));
  t.frame
