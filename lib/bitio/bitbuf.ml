type t = { mutable data : Bytes.t; mutable len : int }

(* Invariants:
   - zero tail: every bit of [t.data] at position >= [t.len] is zero
     ([create]/[ensure]/[reset] zero-fill, and all writers mask);
   - slack: [t.data] holds at least [slack] bytes starting at the
     byte that bit [t.len] lies in, so a 64-bit store at that byte
     stays in bounds.
   Together they let [write_bits] append with one unaligned 64-bit
   store: the store rewrites the partial byte at [t.len] merged with
   the new bits, and fills the rest of its eight bytes with zeros
   that were zeros already. *)
let slack = 8

let create ?(capacity = 256) () =
  { data = Bytes.make (((capacity + 7) / 8) + slack) '\000'; len = 0 }

let length t = t.len
let backing t = t.data

let grow t need =
  let cap = max need (2 * Bytes.length t.data) in
  let data = Bytes.make cap '\000' in
  Bytes.blit t.data 0 data 0 (Bytes.length t.data);
  t.data <- data

(* Small enough to inline: the common case is one compare. *)
let ensure t extra_bits =
  let need = ((t.len + extra_bits + 7) lsr 3) + slack in
  if need > Bytes.length t.data then grow t need

let write_bit t b =
  ensure t 1;
  if b then begin
    let byte = t.len lsr 3 and off = t.len land 7 in
    Bytes.unsafe_set t.data byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get t.data byte) lor (0x80 lsr off)))
  end;
  t.len <- t.len + 1

let write_bits t ~width v =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.write_bits: width";
  if width < 62 && (v < 0 || v lsr width <> 0) then
    invalid_arg "Bitbuf.write_bits: value out of range";
  ensure t width;
  let len = t.len in
  if width <= 56 then begin
    (* The partial byte at [len] keeps its [off] written bits in the
       top byte of the word; [v] follows them, and zeros fill the rest.
       [off + width <= 63], so the shift is 1..64; it is 64 only when
       [width = 0] (then [v = 0]), and [land 63] keeps it defined. *)
    let byte = len lsr 3 and off = len land 7 in
    let head = Char.code (Bytes.unsafe_get t.data byte) in
    Bytes.set_int64_be t.data byte
      (Int64.logor
         (Int64.shift_left (Int64.of_int head) 56)
         (Int64.shift_left (Int64.of_int v) ((64 - off - width) land 63)))
  end
  else Bitops.set_bits t.data ~pos:len ~width v;
  t.len <- len + width

let get_bit t i =
  if i < 0 || i >= t.len then invalid_arg "Bitbuf.get_bit";
  Char.code (Bytes.unsafe_get t.data (i lsr 3)) land (0x80 lsr (i land 7)) <> 0

let read_bits t ~pos ~width =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.read_bits: width";
  if pos < 0 || pos + width > t.len then invalid_arg "Bitbuf.read_bits: range";
  Bitops.get_bits t.data ~pos ~width

let blit src ~src_bit dst ~dst_bit ~len =
  if len < 0 then invalid_arg "Bitbuf.blit: len";
  if src_bit < 0 || src_bit + len > src.len then invalid_arg "Bitbuf.blit: src";
  if dst_bit < 0 || dst_bit > dst.len then invalid_arg "Bitbuf.blit: dst";
  ensure dst (dst_bit + len - dst.len);
  Bitops.blit src.data ~src_pos:src_bit dst.data ~dst_pos:dst_bit ~len;
  if dst_bit + len > dst.len then dst.len <- dst_bit + len

let append dst src =
  (* [dst == src] (self-append) is fine: the copy runs front to back
     and the source bits precede the destination range. *)
  let n = src.len in
  ensure dst n;
  Bitops.blit src.data ~src_pos:0 dst.data ~dst_pos:dst.len ~len:n;
  dst.len <- dst.len + n

let append_bytes t src ~src_bit ~len =
  if len < 0 || src_bit < 0 || src_bit + len > 8 * Bytes.length src then
    invalid_arg "Bitbuf.append_bytes";
  ensure t len;
  Bitops.blit src ~src_pos:src_bit t.data ~dst_pos:t.len ~len;
  t.len <- t.len + len

let reset t =
  Bytes.fill t.data 0 (Bytes.length t.data) '\000';
  t.len <- 0

let to_bytes t =
  let n = (t.len + 7) / 8 in
  Bytes.sub t.data 0 n

let blit_to_bytes t dst ~dst_bit =
  if dst_bit < 0 || dst_bit + t.len > 8 * Bytes.length dst then
    invalid_arg "Bitbuf.blit_to_bytes";
  Bitops.blit t.data ~src_pos:0 dst ~dst_pos:dst_bit ~len:t.len

let of_int ~width v =
  let t = create ~capacity:width () in
  write_bits t ~width v;
  t

let equal a b =
  a.len = b.len
  &&
  let full = a.len lsr 3 in
  let rec bytes_eq i =
    i >= full
    || (Bytes.unsafe_get a.data i = Bytes.unsafe_get b.data i
       && bytes_eq (i + 1))
  in
  bytes_eq 0
  &&
  let tail = a.len land 7 in
  tail = 0
  ||
  let mask = 0xff lsl (8 - tail) land 0xff in
  Char.code (Bytes.unsafe_get a.data full) land mask
  = Char.code (Bytes.unsafe_get b.data full) land mask

let pp ppf t =
  let emit byte bits =
    let c = Char.code (Bytes.unsafe_get t.data byte) in
    for off = 0 to bits - 1 do
      Format.pp_print_char ppf (if c land (0x80 lsr off) <> 0 then '1' else '0')
    done
  in
  let full = t.len lsr 3 in
  for byte = 0 to full - 1 do
    emit byte 8
  done;
  let tail = t.len land 7 in
  if tail > 0 then emit full tail
