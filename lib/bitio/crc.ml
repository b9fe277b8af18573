(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
   behind the on-device extent framing (see [Iosim.Frame]).  Streams
   are bit-addressed, so the primitive works on a bit range: the
   stream is split into 8-bit chunks (the final chunk left-aligned,
   zero-padded), each fed to the byte-table update.  Two images of the
   same bit string therefore hash identically whether they live in a
   [Bitbuf] or unaligned on a device.

   A range that starts on a byte boundary is whole bytes plus one
   partial tail, and its whole bytes go through a slicing-by-8 loop:
   eight bytes per step, one lookup in each of eight tables, so the
   steps do not wait on one another's table loads the way the
   byte-at-a-time update does.  An unaligned range assembles each
   chunk from the two bytes it straddles. *)

let mask32 = 0xFFFFFFFF

(* [tables.(k * 256 + n)] is the CRC of byte [n] followed by [k] zero
   bytes; [k = 0] is the classic byte table. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let tab k i = Array.unsafe_get tables ((k lsl 8) lor i)

let update_byte crc b = tab 0 ((crc lxor b) land 0xFF) lxor (crc lsr 8)

let init = mask32
let finish crc = crc lxor mask32 land mask32

(* Bytes [pos, pos + len) of [data], whole: slicing-by-8, then the
   last [len mod 8] bytes one at a time.  The two 32-bit halves of a
   little-endian load are bytes 0–3 (folded into the running CRC) and
   bytes 4–7. *)
let update_bytes crc data ~pos ~len =
  let c = ref crc in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let w = Bytes.get_int64_le data !i in
    let lo = (Int64.to_int w land mask32) lxor !c in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      tab 7 (lo land 0xFF)
      lxor tab 6 ((lo lsr 8) land 0xFF)
      lxor tab 5 ((lo lsr 16) land 0xFF)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 (hi land 0xFF)
      lxor tab 2 ((hi lsr 8) land 0xFF)
      lxor tab 1 ((hi lsr 16) land 0xFF)
      lxor tab 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := update_byte !c (Char.code (Bytes.unsafe_get data j))
  done;
  !c

let of_bytes ?(crc = init) data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length data then
    invalid_arg "Crc.of_bytes";
  update_bytes (crc land mask32) data ~pos ~len

let of_string s = finish (of_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s))

(* Bit-addressed variant.  The [len / 8] whole chunks come from
   [update_bytes] when [pos] is byte-aligned, and otherwise each from
   the two bytes it straddles; the last [len mod 8] bits are shifted
   left so a partial chunk hashes like its zero-padded image. *)
let of_bits ?(crc = init) data ~pos ~len =
  if pos < 0 || len < 0 || pos + len > 8 * Bytes.length data then
    invalid_arg "Crc.of_bits";
  let crc = crc land mask32 in
  let byte = pos lsr 3 and shift = pos land 7 in
  let nbytes = len lsr 3 in
  let c =
    if shift = 0 then update_bytes crc data ~pos:byte ~len:nbytes
    else begin
      let c = ref crc in
      for j = byte to byte + nbytes - 1 do
        let b =
          (Char.code (Bytes.unsafe_get data j) lsl shift)
          lor (Char.code (Bytes.unsafe_get data (j + 1)) lsr (8 - shift))
        in
        c := update_byte !c (b land 0xFF)
      done;
      !c
    end
  in
  let w = len land 7 in
  if w = 0 then c
  else
    update_byte c
      (Bitops.get_bits data ~pos:(pos + (nbytes lsl 3)) ~width:w lsl (8 - w))

let of_bitbuf buf =
  finish (of_bits (Bitbuf.backing buf) ~pos:0 ~len:(Bitbuf.length buf))
