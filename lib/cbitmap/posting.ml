type t = int array

let empty = [||]

(* A plain loop: it runs over every decoded extent ([adopt],
   [check_slice]). *)
let check_sorted name a ~off ~len =
  for i = off to off + len - 1 do
    let v = Array.unsafe_get a i in
    if v < 0 then invalid_arg (name ^ ": negative");
    if i > off && Array.unsafe_get a (i - 1) >= v then
      invalid_arg (name ^ ": not strictly increasing")
  done

let of_sorted_array a =
  check_sorted "Posting.of_sorted_array" a ~off:0 ~len:(Array.length a);
  Array.copy a

let adopt a =
  check_sorted "Posting.adopt" a ~off:0 ~len:(Array.length a);
  a

let check_slice a ~off ~len =
  if off < 0 || len < 0 || off + len > Array.length a then
    invalid_arg "Posting.check_slice";
  check_sorted "Posting.check_slice" a ~off ~len

let of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    if a.(0) < 0 then invalid_arg "Posting.of_list: negative";
    let out = Array.make n 0 in
    let k = ref 0 in
    Array.iter
      (fun v ->
        if !k = 0 || out.(!k - 1) <> v then begin
          out.(!k) <- v;
          incr k
        end)
      a;
    Array.sub out 0 !k
  end

let of_bitstring s =
  let acc = ref [] in
  String.iteri (fun i c -> if c = '1' then acc := i :: !acc) s;
  Array.of_list (List.rev !acc)

let to_list = Array.to_list
let to_array = Array.copy
let unsafe_to_array t = t
let cardinal = Array.length
let is_empty t = Array.length t = 0
let get t i = t.(i)

(* Index of the first element >= x, or length if none. *)
let lower_bound t x =
  let lo = ref 0 and hi = ref (Array.length t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem t x =
  let i = lower_bound t x in
  i < Array.length t && t.(i) = x

let rank t x = lower_bound t x

(* Merge two sorted slices into a fresh array, dropping duplicates:
   [(out, 0, count)]. *)
let merge2 (a, ao, an) (b, bo, bn) =
  let out = Array.make (an + bn) 0 in
  let i = ref ao and j = ref bo and k = ref 0 in
  let ae = ao + an and be = bo + bn in
  while !i < ae && !j < be do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
    if x < y then begin
      Array.unsafe_set out !k x;
      incr i
    end
    else begin
      Array.unsafe_set out !k y;
      incr j;
      if x = y then incr i
    end;
    incr k
  done;
  let rest src from stop =
    Array.blit src from out !k (stop - from);
    k := !k + (stop - from)
  in
  rest a !i ae;
  rest b !j be;
  ((if !k = an + bn then out else Array.sub out 0 !k), 0, !k)

let union a b =
  let out, _, _ = merge2 (a, 0, Array.length a) (b, 0, Array.length b) in
  out

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    if a.(!i) < b.(!j) then incr i
    else if a.(!i) > b.(!j) then incr j
    else begin
      out.(!k) <- a.(!i);
      incr k;
      incr i;
      incr j
    end
  done;
  Array.sub out 0 !k

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na do
    if !j >= nb || a.(!i) < b.(!j) then begin
      out.(!k) <- a.(!i);
      incr k;
      incr i
    end
    else if a.(!i) > b.(!j) then incr j
    else begin
      incr i;
      incr j
    end
  done;
  Array.sub out 0 !k

(* Multi-way union over slices [(a, off, len)] — the elements
   [a.(off) .. a.(off + len - 1)] — chosen by density.  Inputs holding
   at least one element per 64 positions of the universe they span
   scatter into a bitmap of native-int words, which one scan turns back
   into sorted positions (duplicates collapse in the bitmap); the words
   cost about as much memory as the inputs.  Sparser inputs merge
   pairwise, in rounds, so each element is copied once per round:
   O(total lg k).  The result is always fresh: slices may point into a
   buffer the caller reuses. *)
let word_bits = Sys.int_size

(* Bitmap words, all zero between unions: the emission loop clears
   each word as it reads it, so only the words a union touched are
   written, and a scratch held by a structure costs no allocation once
   it has grown to that structure's universe. *)
type scratch = { mutable words : int array }

let scratch () = { words = [||] }

(* At least two slices; every round merges pairs into fresh arrays,
   so the one array left at the end is never an input. *)
let union_pairwise slices =
  let rec round = function
    | x :: y :: rest -> merge2 x y :: round rest
    | rest -> rest
  in
  let rec go slices =
    match round slices with [ (out, _, _) ] -> out | slices -> go slices
  in
  go slices

let union_bitmap sc ~first ~universe slices =
  let nwords = (universe + word_bits - 1) / word_bits in
  if Array.length sc.words < nwords then
    sc.words <- Array.make (max nwords (2 * Array.length sc.words)) 0;
  let words = sc.words in
  List.iter
    (fun (a, off, len) ->
      for i = off to off + len - 1 do
        let v = Array.unsafe_get a i in
        let w = v / word_bits in
        Array.unsafe_set words w
          (Array.unsafe_get words w lor (1 lsl (v - (w * word_bits))))
      done)
    slices;
  let w0 = first / word_bits and w1 = nwords - 1 in
  let n = ref 0 in
  for i = w0 to w1 do
    n := !n + Bitio.Bitops.popcount (Array.unsafe_get words i)
  done;
  let out = Array.make !n 0 in
  let k = ref 0 in
  for i = w0 to w1 do
    let w = ref (Array.unsafe_get words i) in
    Array.unsafe_set words i 0;
    while !w <> 0 do
      Array.unsafe_set out !k ((i * word_bits) + Bitio.Bitops.ctz !w);
      incr k;
      w := !w land (!w - 1)
    done
  done;
  out

(* Each slice must be a posting's worth of elements: strictly
   increasing and non-negative, which bounds every element by its
   slice's last one — the bitmap writes stay inside [universe]. *)
let union_slices ?scratch:sc slices =
  let slices = List.filter (fun (_, _, len) -> len > 0) slices in
  match slices with
  | [] -> empty
  | [ (a, off, len) ] -> Array.sub a off len
  | _ ->
      let total, first, universe =
        List.fold_left
          (fun (total, first, universe) (a, off, len) ->
            if off < 0 || off + len > Array.length a then
              invalid_arg "Posting.union_slices";
            ( total + len,
              min first a.(off),
              max universe (a.(off + len - 1) + 1) ))
          (0, max_int, 0) slices
      in
      if total * 64 >= universe then
        let sc = match sc with Some sc -> sc | None -> scratch () in
        union_bitmap sc ~first ~universe slices
      else union_pairwise slices

let union_many lists =
  match List.filter (fun a -> Array.length a > 0) lists with
  | [] -> empty
  | [ a ] -> a
  | lists -> union_slices (List.map (fun a -> (a, 0, Array.length a)) lists)

module Writer = struct
  (* [out] stays [empty] until the first element is written, so a part
     that fills the whole answer unshifted can become [out] itself. *)
  type t = { cap : int; mutable out : int array; mutable len : int }

  let create total =
    if total < 0 then invalid_arg "Posting.Writer.create";
    { cap = total; out = empty; len = 0 }

  (* The checks shared by both writers, on the first element [first]
     of a part of [m >= 1] elements: every part is a posting already,
     so the whole is strictly increasing iff each seam is. *)
  let check_part w ~first ~m =
    if first < 0 then invalid_arg "Posting.Writer: negative";
    if w.len > 0 && w.out.(w.len - 1) >= first then
      invalid_arg "Posting.Writer: parts overlap or are out of order";
    if w.len + m > w.cap then
      invalid_arg "Posting.Writer: more elements than declared";
    if w.len = 0 then w.out <- Array.make w.cap 0

  let add w ~shift p =
    let m = Array.length p in
    if m > 0 then
      if shift = 0 && m = w.cap && w.len = 0 then begin
        if p.(0) < 0 then invalid_arg "Posting.Writer: negative";
        w.out <- p;
        w.len <- m
      end
      else begin
        check_part w ~first:(p.(0) + shift) ~m;
        let out = w.out and k = w.len in
        for i = 0 to m - 1 do
          Array.unsafe_set out (k + i) (Array.unsafe_get p i + shift)
        done;
        w.len <- k + m
      end

  let add_complement w ~shift ~n p =
    let np = Array.length p in
    if np > 0 && (p.(0) < 0 || p.(np - 1) >= n) then
      invalid_arg "Posting.Writer: excluded positions outside [0;n)";
    let m = n - np in
    if m > 0 then begin
      (* the first position not excluded: [p] is sorted and distinct *)
      let first = ref 0 in
      while !first < np && p.(!first) = !first do
        incr first
      done;
      let first = !first in
      check_part w ~first:(first + shift) ~m;
      let out = w.out and k = ref w.len and prev = ref (-1) in
      for j = 0 to np do
        let x = if j < np then Array.unsafe_get p j else n in
        for v = !prev + 1 to x - 1 do
          Array.unsafe_set out !k (v + shift);
          incr k
        done;
        prev := x
      done;
      w.len <- !k
    end

  let finish w =
    if w.len <> w.cap then
      invalid_arg "Posting.Writer: fewer elements than declared";
    w.out
end

let complement ~n t =
  let w = Writer.create (n - Array.length t) in
  Writer.add_complement w ~shift:0 ~n t;
  Writer.finish w

let iter = Array.iter
let fold = Array.fold_left
let equal a b = a = b

let subset a b =
  let nb = Array.length b in
  let rec go i j =
    if i >= Array.length a then true
    else if j >= nb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  go 0 0

(* [p] runs once per element, in order; a byte mask remembers its
   verdicts so the output is allocated at its final size and each kept
   element is written once. *)
let filter p t =
  let n = Array.length t in
  let keep = Bytes.create n in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if p (Array.unsafe_get t i) then begin
      Bytes.unsafe_set keep i '\001';
      incr k
    end
    else Bytes.unsafe_set keep i '\000'
  done;
  if !k = n then t
  else begin
    let out = Array.make !k 0 in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get keep i = '\001' then begin
        Array.unsafe_set out !j (Array.unsafe_get t i);
        incr j
      end
    done;
    out
  end

let filter_range ~lo ~hi t =
  let i = lower_bound t lo and j = lower_bound t (hi + 1) in
  Array.sub t i (j - i)

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list t)
