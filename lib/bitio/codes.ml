let floor_log2 v =
  if v < 1 then invalid_arg "Codes.floor_log2";
  Bitops.msb v

let ceil_log2 v =
  if v < 1 then invalid_arg "Codes.ceil_log2";
  if v = 1 then 0 else floor_log2 (v - 1) + 1

(* A full-width chunk of one bits.  [width = 62] bypasses
   [Bitbuf.write_bits]'s range check by design, and [max_int] is
   exactly 62 ones. *)
let all_ones = max_int

let encode_unary buf v =
  if v < 0 then invalid_arg "Codes.encode_unary";
  let rem = ref v in
  while !rem >= 62 do
    Bitbuf.write_bits buf ~width:62 all_ones;
    rem := !rem - 62
  done;
  (* [rem] ones then the terminating zero, in one write: rem <= 61 so
     the shifted value fits 62 bits. *)
  Bitbuf.write_bits buf ~width:(!rem + 1) (((1 lsl !rem) - 1) lsl 1)

let decode_unary d = Decoder.one_run d
let unary_size v = v + 1

(* Gamma: floor(lg v) zero-bits, then v in binary (whose leading bit is
   a one and acts as the terminator of the zero run).  Those k zeros
   are just the leading zeros of v in a field of 2k+1 bits, so a
   codeword of at most 62 bits (v < 2^31) is one [write_bits] of v
   itself, which [Bitbuf] lands with one 64-bit store when it is at
   most 56 bits wide (v < 2^28).  Longer codewords take the zeros and
   v as two writes (k <= 61 zeros fit one).

   [log2_small v] is floor(lg v) read off the exponent of [v]'s float
   image, exact for 1 <= v < 2^53: a conversion and a shift, where
   [Bitops.msb]'s smear-and-popcount costs about three times as much
   per codeword. *)
let log2_small v =
  (Int64.to_int (Int64.bits_of_float (Float.of_int v)) lsr 52) - 1023

let encode_gamma buf v =
  if v < 1 then invalid_arg "Codes.encode_gamma";
  if v < 1 lsl 31 then
    Bitbuf.write_bits buf ~width:((log2_small v lsl 1) + 1) v
  else begin
    let k = Bitops.msb v in
    Bitbuf.write_bits buf ~width:k 0;
    Bitbuf.write_bits buf ~width:(k + 1) v
  end

(* The gap loop stays inside this module, so each codeword costs one
   direct [encode_gamma] call; see [Gap_codec.encode]. *)
let encode_gamma_gaps buf ~prev a =
  let last = ref prev in
  for i = 0 to Array.length a - 1 do
    let p = Array.unsafe_get a i in
    encode_gamma buf (p - !last);
    last := p
  done

(* The fused fast path lives on the decoder itself (cache state in
   registers); see [Decoder.gamma]. *)
let decode_gamma = Decoder.gamma

let gamma_size v =
  if v < 1 then invalid_arg "Codes.gamma_size";
  (2 * floor_log2 v) + 1

let encode_delta buf v =
  if v < 1 then invalid_arg "Codes.encode_delta";
  let k = Bitops.msb v in
  encode_gamma buf (k + 1);
  if k > 0 then Bitbuf.write_bits buf ~width:k (v land ((1 lsl k) - 1))

let decode_delta_slow d =
  let k = decode_gamma d - 1 in
  if k > 61 then
    Secidx_error.corrupt "Codes.decode_delta: length prefix %d exceeds word"
      k;
  if k = 0 then 1 else (1 lsl k) lor Decoder.read_bits d k

(* Fused delta: gamma length prefix and mantissa decoded out of one
   cache window when both fit; nothing is consumed before the fast
   path commits, so the fallback re-decodes from scratch. *)
let decode_delta d =
  let cache, avail = Decoder.window d in
  if cache = 0 then decode_delta_slow d
  else begin
    let z = avail - 1 - Bitops.msb cache in
    let glen = (z lsl 1) + 1 in
    if glen > avail then decode_delta_slow d
    else begin
      let k = (cache lsr (avail - glen)) - 1 in
      let len = glen + k in
      if len <= avail then begin
        Decoder.advance d len;
        (1 lsl k) lor ((cache lsr (avail - len)) land ((1 lsl k) - 1))
      end
      else decode_delta_slow d
    end
  end

let delta_size v =
  let k = floor_log2 v in
  gamma_size (k + 1) + k

let encode_rice buf ~k v =
  if v < 0 || k < 0 then invalid_arg "Codes.encode_rice";
  encode_unary buf (v lsr k);
  if k > 0 then Bitbuf.write_bits buf ~width:k (v land ((1 lsl k) - 1))

let decode_rice_slow d ~k =
  let q = Decoder.one_run d in
  if k > 0 && q > max_int lsr k then
    Secidx_error.corrupt "Codes.decode_rice: quotient %d overflows word" q;
  let rem = if k = 0 then 0 else Decoder.read_bits d k in
  (q lsl k) lor rem

(* Fused rice: invert the window to CLZ-locate the quotient's
   terminating zero, then take the [k]-bit remainder from the same
   window.  [(1 lsl avail) - 1] is a valid mask even at [avail = 62]
   (wraps to [max_int], exactly 62 ones). *)
let decode_rice d ~k =
  let cache, avail = Decoder.window d in
  let x = cache lxor ((1 lsl avail) - 1) in
  if x = 0 then decode_rice_slow d ~k
  else begin
    let q = avail - 1 - Bitops.msb x in
    let len = q + 1 + k in
    if len <= avail then begin
      Decoder.advance d len;
      (q lsl k) lor ((cache lsr (avail - len)) land ((1 lsl k) - 1))
    end
    else decode_rice_slow d ~k
  end

let rice_size ~k v = (v lsr k) + 1 + k

let encode_fixed buf ~width v = Bitbuf.write_bits buf ~width v
let decode_fixed d ~width = Decoder.read_bits d width
let fixed_size ~width _ = width

(* Fibonacci numbers F.(0) = 1, F.(1) = 2, F.(2) = 3, 5, 8, ... *)
let fibs =
  let rec go a b acc = if b > max_int / 2 then List.rev acc else go b (a + b) (b :: acc) in
  Array.of_list (go 1 1 [])

(* One Zeckendorf decomposition serving encode, size and
   [fibonacci_decomposition]: ascending term indices plus the top
   index (saving the [fold_left max] re-scan). *)
let zeckendorf v =
  if v < 1 then invalid_arg "Codes.fibonacci";
  let rec largest i = if i + 1 < Array.length fibs && fibs.(i + 1) <= v then largest (i + 1) else i in
  let top = largest 0 in
  let rec go v i acc =
    if v = 0 then acc
    else if fibs.(i) <= v then go (v - fibs.(i)) (i - 1) (i :: acc)
    else go v (i - 1) acc
  in
  (go v top [], top)

let fibonacci_decomposition v = fst (zeckendorf v)

(* Codewords can exceed one cache/write chunk (fibs go past F(80)), so
   zero gaps between terms are emitted in <= 62-bit chunks. *)
let write_zeros buf n =
  let rem = ref n in
  while !rem > 62 do
    Bitbuf.write_bits buf ~width:62 0;
    rem := !rem - 62
  done;
  if !rem > 0 then Bitbuf.write_bits buf ~width:!rem 0

let encode_fibonacci buf v =
  let terms, _top = zeckendorf v in
  (* Zeckendorf terms are non-adjacent, so between consecutive one
     bits there is at least one zero; emitting gap-by-gap is O(top)
     total instead of the old O(top^2) [List.mem] scan. *)
  let prev = ref (-1) in
  List.iter
    (fun i ->
      write_zeros buf (i - !prev - 1);
      Bitbuf.write_bit buf true;
      prev := i)
    terms;
  Bitbuf.write_bit buf true

let decode_fibonacci d =
  (* Each zero-run scan lands on a one bit at index [prev + z + 1]; a
     zero-length run after at least one term is the "11" terminator.
     Term indices past the table mean the value cannot fit the 62-bit
     word bound (the table stops below [max_int / 2]) — typed
     corruption, and the cap on the run scan keeps the work bounded
     even on an adversarial all-zeros stream. *)
  let nfibs = Array.length fibs in
  let rec go prev acc =
    let z = Decoder.zero_run ~max:nfibs d in
    if z = 0 && prev >= 0 then acc
    else
      let idx = prev + z + 1 in
      if idx >= nfibs then
        Secidx_error.corrupt
          "Codes.decode_fibonacci: term F(%d) exceeds word bound" idx;
      go idx (acc + fibs.(idx))
  in
  go (-1) 0

let fibonacci_size v =
  let _, top = zeckendorf v in
  top + 2
