type code = Gamma | Delta | Rice of int | Fibonacci

let encode_value code buf v =
  match code with
  | Gamma -> Bitio.Codes.encode_gamma buf v
  | Delta -> Bitio.Codes.encode_delta buf v
  | Rice k -> Bitio.Codes.encode_rice buf ~k v
  | Fibonacci -> Bitio.Codes.encode_fibonacci buf v

let decode_value code d =
  match code with
  | Gamma -> Bitio.Codes.decode_gamma d
  | Delta -> Bitio.Codes.decode_delta d
  | Rice k -> Bitio.Codes.decode_rice d ~k
  | Fibonacci -> Bitio.Codes.decode_fibonacci d

let value_size code v =
  match code with
  | Gamma -> Bitio.Codes.gamma_size v
  | Delta -> Bitio.Codes.delta_size v
  | Rice k -> Bitio.Codes.rice_size ~k v
  | Fibonacci -> Bitio.Codes.fibonacci_size v

(* Gamma (the paper's canonical code) gets one monomorphic loop over
   the posting's array, mirroring [decode_into].  A shift moves no gap
   but the first, [p_0 + shift + 1], which is the first gap from a
   predecessor at [-1 - shift]. *)
let encode_shifted ?(code = Gamma) ~shift buf posting =
  match code with
  | Gamma ->
      Bitio.Codes.encode_gamma_gaps buf ~prev:(-1 - shift)
        (Posting.unsafe_to_array posting)
  | _ ->
      let last = ref (-1) in
      Posting.iter
        (fun p ->
          let p = p + shift in
          let gap = if !last < 0 then p + 1 else p - !last in
          encode_value code buf gap;
          last := p)
        posting

let encode ?code buf posting = encode_shifted ?code ~shift:0 buf posting

let to_buf ?code posting =
  let buf = Bitio.Bitbuf.create () in
  encode ?code buf posting;
  buf

let encoded_size ?(code = Gamma) posting =
  let last = ref (-1) in
  Posting.fold
    (fun acc p ->
      let gap = if !last < 0 then p + 1 else p - !last in
      last := p;
      acc + value_size code gap)
    0 posting

(* Bulk decode into a caller-provided array of absolute positions —
   the one-pass hot path under Theorem 2 queries.  Gamma (the paper's
   canonical code) gets a monomorphic loop so the per-gap cost is the
   decoder's CLZ scan and nothing else. *)
let decode_into ?(code = Gamma) ?(last = -1) ?(at = 0) d ~count out =
  if at < 0 || count < 0 || count > Array.length out - at then
    invalid_arg "Gap_codec.decode_into";
  (match code with
  | Gamma ->
      (* [gap - 1] for the first value is just [-1 + gap], so the
         prefix-sum loop handles the no-predecessor case uniformly. *)
      Bitio.Decoder.gamma_prefix_into ~at d ~prev:last ~count out
  | _ ->
      let lastp = ref last in
      for i = at to at + count - 1 do
        let gap = decode_value code d in
        let p = if !lastp < 0 then gap - 1 else !lastp + gap in
        Array.unsafe_set out i p;
        lastp := p
      done)

(* [out] is fresh and nothing else holds it, so the posting adopts it
   after the same check [of_sorted_array] makes, without a copy. *)
let decode ?code d ~count =
  let out = Array.make count 0 in
  decode_into ?code d ~count out;
  Posting.adopt out

let append_size ?(code = Gamma) ~last p =
  let gap = if last < 0 then p + 1 else p - last in
  value_size code gap

let encode_append ?(code = Gamma) ~last buf p =
  let gap = if last < 0 then p + 1 else p - last in
  encode_value code buf gap

let binomial_entropy_bits ~n ~m =
  if m < 0 || m > n then invalid_arg "Gap_codec.binomial_entropy_bits";
  let m = min m (n - m) in
  let acc = ref 0.0 in
  for i = 1 to m do
    acc := !acc +. log (float_of_int (n - m + i) /. float_of_int i)
  done;
  !acc /. log 2.0
