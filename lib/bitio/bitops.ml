(* Word-at-a-time bit manipulation on raw [bytes], shared by the whole
   bit-I/O substrate (Bitbuf, Iosim.Device, Cbitmap.Rank_select).

   Convention matches Bitbuf: bit [i] of a stream lives in byte
   [i / 8] under mask [0x80 lsr (i mod 8)] — most significant bit
   first.  All functions here assume the caller has validated ranges
   (Bitbuf and Device keep their existing checks); inner loops use
   unsafe accessors. *)

(* --- popcount ------------------------------------------------------ *)

(* SWAR constants for the 63-bit native int, assembled from 32-bit
   halves because the 64-bit literals exceed [max_int].  The top bit
   of each pattern truncates away, which is harmless: an OCaml int is
   a 64-bit word whose bit 63 is never set, so the standard 64-bit
   SWAR derivation applies unchanged modulo 2^63. *)
let m1 = (0x55555555 lsl 32) lor 0x55555555
let m2 = (0x33333333 lsl 32) lor 0x33333333
let m4 = (0x0f0f0f0f lsl 32) lor 0x0f0f0f0f
let h01 = (0x01010101 lsl 32) lor 0x01010101

let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr 56

(* Index of the lowest set bit; [x] must be non-zero. *)
let ctz x = popcount ((x land -x) - 1)

(* Index of the highest set bit; [x] must be non-zero (returns -1 for
   0).  Smears the MSB down into every lower position, then counts.
   Used as the CLZ core of Decoder's zero-run scans. *)
let msb x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  popcount x - 1

(* --- word reads/writes --------------------------------------------- *)

(* [get_bits data ~pos ~width] assembles bits [pos .. pos+width-1]
   MSB-first into an int.  The accumulator never holds more than
   [width] <= 62 bits: the leading partial byte is masked before any
   whole bytes are merged in. *)
let get_bits data ~pos ~width =
  if width = 0 then 0
  else begin
    let byte = pos lsr 3 and off = pos land 7 in
    let avail = 8 - off in
    let b0 = Char.code (Bytes.unsafe_get data byte) land (0xff lsr off) in
    if width <= avail then b0 lsr (avail - width)
    else begin
      let acc = ref b0 in
      let got = ref avail in
      let i = ref (byte + 1) in
      while width - !got >= 8 do
        acc := (!acc lsl 8) lor Char.code (Bytes.unsafe_get data !i);
        incr i;
        got := !got + 8
      done;
      let rem = width - !got in
      if rem > 0 then
        acc :=
          (!acc lsl rem)
          lor (Char.code (Bytes.unsafe_get data !i) lsr (8 - rem));
      !acc
    end
  end

(* [set_bits data ~pos ~width v] stores the [width] low bits of [v]
   MSB-first at [pos], preserving every surrounding bit (masked
   read-modify-write on the partial head and tail bytes, direct stores
   for whole bytes in between). *)
let set_bits data ~pos ~width v =
  if width > 0 then begin
    let byte = pos lsr 3 and off = pos land 7 in
    let avail = 8 - off in
    if width <= avail then begin
      let shift = avail - width in
      let mask = ((1 lsl width) - 1) lsl shift in
      let cur = Char.code (Bytes.unsafe_get data byte) in
      Bytes.unsafe_set data byte
        (Char.unsafe_chr
           (cur land (lnot mask land 0xff) lor ((v lsl shift) land mask)))
    end
    else begin
      let rem = ref (width - avail) in
      let head_mask = (1 lsl avail) - 1 in
      let cur = Char.code (Bytes.unsafe_get data byte) in
      Bytes.unsafe_set data byte
        (Char.unsafe_chr
           (cur land (lnot head_mask land 0xff)
           lor ((v lsr !rem) land head_mask)));
      let i = ref (byte + 1) in
      while !rem >= 8 do
        rem := !rem - 8;
        Bytes.unsafe_set data !i (Char.unsafe_chr ((v lsr !rem) land 0xff));
        incr i
      done;
      if !rem > 0 then begin
        let r = !rem in
        let tail_mask = 0xff lsl (8 - r) land 0xff in
        let cur = Char.code (Bytes.unsafe_get data !i) in
        Bytes.unsafe_set data !i
          (Char.unsafe_chr
             (cur land (lnot tail_mask land 0xff)
             lor ((v land ((1 lsl r) - 1)) lsl (8 - r))))
      end
    end
  end

(* --- bulk copy ----------------------------------------------------- *)

(* Copies [len] bits forward.  The regions must not overlap, except
   that [src == dst] with [dst_pos >= src_pos + len] (self-append) is
   fine because the copy proceeds front to back.  Strategy: peel bits
   until [dst] is byte-aligned, then either a straight [Bytes.blit]
   (when [src] lands byte-aligned too) or 56-bit chunks assembled with
   [get_bits] and stored as seven whole bytes. *)
let blit src ~src_pos dst ~dst_pos ~len =
  if len > 0 then begin
    let head = min ((8 - (dst_pos land 7)) land 7) len in
    if head > 0 then
      set_bits dst ~pos:dst_pos ~width:head
        (get_bits src ~pos:src_pos ~width:head);
    let len = len - head in
    let sp = ref (src_pos + head) and dp = ref (dst_pos + head) in
    if len > 0 then
      if !sp land 7 = 0 then begin
        let nbytes = len lsr 3 in
        Bytes.blit src (!sp lsr 3) dst (!dp lsr 3) nbytes;
        let tail = len land 7 in
        if tail > 0 then begin
          let skip = nbytes lsl 3 in
          set_bits dst ~pos:(!dp + skip) ~width:tail
            (get_bits src ~pos:(!sp + skip) ~width:tail)
        end
      end
      else begin
        let remaining = ref len in
        while !remaining >= 56 do
          let v = get_bits src ~pos:!sp ~width:56 in
          let b = !dp lsr 3 in
          Bytes.unsafe_set dst b (Char.unsafe_chr (v lsr 48 land 0xff));
          Bytes.unsafe_set dst (b + 1) (Char.unsafe_chr (v lsr 40 land 0xff));
          Bytes.unsafe_set dst (b + 2) (Char.unsafe_chr (v lsr 32 land 0xff));
          Bytes.unsafe_set dst (b + 3) (Char.unsafe_chr (v lsr 24 land 0xff));
          Bytes.unsafe_set dst (b + 4) (Char.unsafe_chr (v lsr 16 land 0xff));
          Bytes.unsafe_set dst (b + 5) (Char.unsafe_chr (v lsr 8 land 0xff));
          Bytes.unsafe_set dst (b + 6) (Char.unsafe_chr (v land 0xff));
          sp := !sp + 56;
          dp := !dp + 56;
          remaining := !remaining - 56
        done;
        if !remaining > 0 then
          set_bits dst ~pos:!dp ~width:!remaining
            (get_bits src ~pos:!sp ~width:!remaining)
      end
  end
