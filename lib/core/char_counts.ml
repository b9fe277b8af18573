(* The per-character count array of the dynamic indexes (§4.1): one
   32-bit field per character, in one framed, block-aligned extent.
   An update reads and rewrites a field in place and invalidates the
   frame, so the next scrub reseals it; repair recomputes the array
   from the live string. *)

let width = 32

type t = { device : Iosim.Device.t; frame : Iosim.Frame.t }

let encode counts =
  let buf = Bitio.Bitbuf.create () in
  Array.iter (fun v -> Bitio.Bitbuf.write_bits buf ~width v) counts;
  buf

let store device ~magic counts =
  let frame =
    Iosim.Device.with_component device "directory" (fun () ->
        Iosim.Frame.store device ~magic ~align_block:true (encode counts))
  in
  { device; frame }

let region t = Iosim.Frame.payload t.frame
let field t ch = (region t).Iosim.Device.off + (ch * width)
let get t ch = Iosim.Device.read_bits t.device ~pos:(field t ch) ~width

let add t ch delta =
  let pos = field t ch in
  let v = Iosim.Device.read_bits t.device ~pos ~width in
  Iosim.Device.write_bits t.device ~pos ~width (v + delta);
  Iosim.Frame.invalidate t.frame

let frame t ~live =
  Iosim.Frame.set_rebuild t.frame (fun () -> encode (live ()));
  t.frame
