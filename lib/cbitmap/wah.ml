(* 32-bit WAH.  Payload group size is 31 bits.  Words:
   - literal: bit31 = 0, bits 30..0 = payload group;
   - fill:    bit31 = 1, bit30 = fill bit, bits 29..0 = group count. *)

let group = 31
let fill_flag = 1 lsl 31
let fill_bit_flag = 1 lsl 30
let count_mask = fill_bit_flag - 1

type t = { words : int array; bit_length : int }

let bit_length t = t.bit_length
let word_count t = Array.length t.words
let size_bits t = 32 * Array.length t.words

let encode ~n posting =
  if n < 0 then invalid_arg "Wah.encode";
  let ngroups = (n + group - 1) / group in
  let words = ref [] in
  let nwords = ref 0 in
  let push w =
    words := w :: !words;
    incr nwords
  in
  (* Emit a group, merging runs of identical fills. *)
  let emit g =
    if g = 0 || g = (1 lsl group) - 1 then begin
      let bit = if g = 0 then 0 else 1 in
      match !words with
      | w :: rest
        when w land fill_flag <> 0
             && (if bit = 1 then w land fill_bit_flag <> 0
                 else w land fill_bit_flag = 0)
             && w land count_mask < count_mask ->
          words := (w + 1) :: rest
      | _ ->
          push
            (fill_flag
            lor (if bit = 1 then fill_bit_flag else 0)
            lor 1)
    end
    else push g
  in
  let pa = Posting.to_array posting in
  let pi = ref 0 in
  for gidx = 0 to ngroups - 1 do
    let base = gidx * group in
    let limit = min n (base + group) in
    let g = ref 0 in
    while !pi < Array.length pa && pa.(!pi) < limit do
      (* Bit j of the group (0 = first position) is stored at payload
         bit position (group - 1 - j) so that decode order is stable. *)
      let j = pa.(!pi) - base in
      g := !g lor (1 lsl (group - 1 - j));
      incr pi
    done;
    (* The final group may be partial; pad with zeros (positions >= n
       never appear). *)
    emit !g
  done;
  { words = Array.of_list (List.rev !words); bit_length = n }

let iter_groups t f =
  Array.iter
    (fun w ->
      if w land fill_flag <> 0 then begin
        let bit = w land fill_bit_flag <> 0 in
        let count = w land count_mask in
        let g = if bit then (1 lsl group) - 1 else 0 in
        for _ = 1 to count do
          f g
        done
      end
      else f w)
    t.words

let decode t =
  let acc = ref [] in
  let base = ref 0 in
  iter_groups t (fun g ->
      if g <> 0 then
        for j = 0 to group - 1 do
          if g land (1 lsl (group - 1 - j)) <> 0 then begin
            let p = !base + j in
            if p < t.bit_length then acc := p :: !acc
          end
        done;
      base := !base + group);
  Posting.of_sorted_array (Array.of_list (List.rev !acc))

(* Generic word-wise boolean op via group expansion then re-encode.
   Real WAH implementations operate run-wise; for the simulator the
   group-wise version is simpler and produces identical images. *)
let boolean op a b =
  if a.bit_length <> b.bit_length then invalid_arg "Wah.boolean: lengths";
  let ga = ref [] and gb = ref [] in
  iter_groups a (fun g -> ga := g :: !ga);
  iter_groups b (fun g -> gb := g :: !gb);
  let ga = Array.of_list (List.rev !ga) and gb = Array.of_list (List.rev !gb) in
  let posting = ref [] in
  Array.iteri
    (fun i g ->
      let g = op g gb.(i) in
      if g <> 0 then
        for j = 0 to group - 1 do
          if g land (1 lsl (group - 1 - j)) <> 0 then begin
            let p = (i * group) + j in
            if p < a.bit_length then posting := p :: !posting
          end
        done)
    ga;
  encode ~n:a.bit_length
    (Posting.of_sorted_array (Array.of_list (List.rev !posting)))

let union a b = boolean ( lor ) a b
let inter a b = boolean ( land ) a b

let to_buf t =
  let buf = Bitio.Bitbuf.create ~capacity:(size_bits t) () in
  Array.iter
    (fun w ->
      Bitio.Bitbuf.write_bits buf ~width:16 ((w lsr 16) land 0xffff);
      Bitio.Bitbuf.write_bits buf ~width:16 (w land 0xffff))
    t.words;
  buf

let of_decoder d ~words ~bit_length =
  let arr =
    Array.init words (fun _ -> Bitio.Decoder.read_bits d 32)
  in
  { words = arr; bit_length }
