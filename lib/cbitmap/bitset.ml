(* 32 positions per word: a position's word and bit are a shift and a
   mask away, where the native int width would cost a division. *)
let word_bits = 32

(* Only [words.(0 .. live - 1)] belong to the set: a [clear] for fewer
   positions than an earlier one leaves the words past [live] stale. *)
type t = { mutable words : int array; mutable live : int; mutable cardinal : int }

let create () = { words = [||]; live = 0; cardinal = 0 }

let clear t ~n =
  let need = (n + word_bits - 1) / word_bits in
  if need > Array.length t.words then
    t.words <- Array.make (max need (2 * Array.length t.words)) 0
  else Array.fill t.words 0 need 0;
  t.live <- need;
  t.cardinal <- 0

let add t p =
  let w = p lsr 5 in
  if w >= t.live then invalid_arg "Bitset.add";
  let old = Array.unsafe_get t.words w in
  let now = old lor (1 lsl (p land 31)) in
  if now <> old then begin
    Array.unsafe_set t.words w now;
    t.cardinal <- t.cardinal + 1
  end

let mem t p =
  let w = p lsr 5 in
  w < t.live
  && (Array.unsafe_get t.words w lsr (p land 31)) land 1 = 1

let to_posting t =
  let out = Array.make t.cardinal 0 in
  let k = ref 0 in
  for i = 0 to t.live - 1 do
    let w = ref (Array.unsafe_get t.words i) in
    while !w <> 0 do
      Array.unsafe_set out !k ((i * word_bits) + Bitio.Bitops.ctz !w);
      incr k;
      w := !w land (!w - 1)
    done
  done;
  Posting.adopt out
