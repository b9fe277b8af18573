(* 32 positions per word: a position's word and bit are a shift and a
   mask away, where the native int width would cost a division. *)
let word_bits = 32

type t = { mutable words : int array; mutable cardinal : int }

let create () = { words = [||]; cardinal = 0 }

let clear t ~n =
  let need = (n + word_bits - 1) / word_bits in
  if need > Array.length t.words then
    t.words <- Array.make (max need (2 * Array.length t.words)) 0
  else Array.fill t.words 0 (Array.length t.words) 0;
  t.cardinal <- 0

let add t p =
  let w = p lsr 5 in
  let old = t.words.(w) in
  let now = old lor (1 lsl (p land 31)) in
  if now <> old then begin
    Array.unsafe_set t.words w now;
    t.cardinal <- t.cardinal + 1
  end

let mem t p =
  let w = p lsr 5 in
  w < Array.length t.words
  && (Array.unsafe_get t.words w lsr (p land 31)) land 1 = 1

let to_posting t =
  let out = Array.make t.cardinal 0 in
  let k = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    let w = ref (Array.unsafe_get t.words i) in
    while !w <> 0 do
      Array.unsafe_set out !k ((i * word_bits) + Bitio.Bitops.ctz !w);
      incr k;
      w := !w land (!w - 1)
    done
  done;
  Posting.adopt out
