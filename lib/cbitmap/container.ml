module Bitbuf = Bitio.Bitbuf
module Decoder = Bitio.Decoder
module Bitops = Bitio.Bitops
module Codes = Bitio.Codes

type kind = Empty | Array | Bitmap | Runs

let kind_name = function
  | Empty -> "empty"
  | Array -> "array"
  | Bitmap -> "bitmap"
  | Runs -> "runs"

let tag_bits = 2

(* Tag values on the wire.  3 (Empty) is the all-ones pattern so a
   zero-filled region never decodes as a silent empty container. *)
let tag_of = function Array -> 0 | Bitmap -> 1 | Runs -> 2 | Empty -> 3

let check_n n = if n < 1 then invalid_arg "Container: universe width"

let value_bits ~n =
  check_n n;
  max 1 (Codes.ceil_log2 n)

(* Cardinality / run-count fields store count - 1 (the empty kind
   already owns count = 0), so they fit the value width even at
   [n = max_int]. *)
let count_bits ~n = value_bits ~n

let empty_bits = tag_bits
let array_bits ~n ~m = tag_bits + count_bits ~n + (m * value_bits ~n)

(* Saturating: near [max_int] the literal bitmap can never win, and
   [tag_bits + n] must not overflow into a negative "smallest" size. *)
let bitmap_bits ~n =
  check_n n;
  if n > max_int - tag_bits then max_int else tag_bits + n
let runs_bits ~n ~r = tag_bits + count_bits ~n + (2 * r * value_bits ~n)

let runs_of posting =
  let a = Posting.to_array posting in
  let m = Array.length a in
  let r = ref 0 in
  for i = 0 to m - 1 do
    if i = 0 || a.(i) <> a.(i - 1) + 1 then incr r
  done;
  !r

let choose ~n ~m ~r =
  check_n n;
  if m < 0 || m > n then invalid_arg "Container.choose: cardinality";
  if m = 0 then (Empty, empty_bits)
  else begin
    if r < 1 || r > m then invalid_arg "Container.choose: run count";
    let a = array_bits ~n ~m in
    let b = bitmap_bits ~n in
    let ru = runs_bits ~n ~r in
    if a <= ru && a <= b then (Array, a)
    else if ru <= b then (Runs, ru)
    else (Bitmap, b)
  end

let encoded_size ~n posting =
  let m = Posting.cardinal posting in
  let r = if m = 0 then 0 else runs_of posting in
  snd (choose ~n ~m ~r)

(* Bitmap containers are written/read in words of up to 62 bits: word
   covering [base, base + cw) holds position base + j at bit cw-1-j
   (most-significant first, matching the Bitbuf convention). *)
let iter_words ~n f =
  let base = ref 0 in
  while !base < n do
    let cw = min 62 (n - !base) in
    f !base cw;
    base := !base + cw
  done

let encode ~n buf posting =
  check_n n;
  let a = Posting.to_array posting in
  let m = Array.length a in
  if m > 0 && (a.(0) < 0 || a.(m - 1) >= n) then
    invalid_arg "Container.encode: position out of range";
  let r = if m = 0 then 0 else runs_of posting in
  let kind, _ = choose ~n ~m ~r in
  Bitbuf.write_bits buf ~width:tag_bits (tag_of kind);
  (match kind with
  | Empty -> ()
  | Array ->
      Bitbuf.write_bits buf ~width:(count_bits ~n) (m - 1);
      let w = value_bits ~n in
      Array.iter (fun v -> Bitbuf.write_bits buf ~width:w v) a
  | Bitmap ->
      let i = ref 0 in
      iter_words ~n (fun base cw ->
          let word = ref 0 in
          while !i < m && a.(!i) < base + cw do
            word := !word lor (1 lsl (cw - 1 - (a.(!i) - base)));
            incr i
          done;
          Bitbuf.write_bits buf ~width:cw !word)
  | Runs ->
      Bitbuf.write_bits buf ~width:(count_bits ~n) (r - 1);
      let w = value_bits ~n in
      let i = ref 0 in
      while !i < m do
        let start = a.(!i) in
        let j = ref (!i + 1) in
        while !j < m && a.(!j) = a.(!j - 1) + 1 do
          incr j
        done;
        Bitbuf.write_bits buf ~width:w start;
        Bitbuf.write_bits buf ~width:w (!j - !i - 1);
        i := !j
      done);
  kind

let read_kind d =
  match Decoder.read_bits d tag_bits with
  | 0 -> Array
  | 1 -> Bitmap
  | 2 -> Runs
  | _ -> Empty

(* Growable position collector for bitmap decode (cardinality is not
   stored for bitmap containers). *)
type vec = { mutable buf : int array; mutable len : int }

let vec_create () = { buf = Array.make 16 0; len = 0 }

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let grown = Array.make (2 * v.len) 0 in
    Array.blit v.buf 0 grown 0 v.len;
    v.buf <- grown
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

let vec_contents v = Array.sub v.buf 0 v.len

let decode_add ~n ~base:off d =
  check_n n;
  match read_kind d with
  | Empty -> [||]
  | Array ->
      let m = (Decoder.read_bits d (count_bits ~n) + 1) in
      let w = value_bits ~n in
      Array.init m (fun _ -> off + Decoder.read_bits d w)
  | Bitmap ->
      let out = vec_create () in
      iter_words ~n (fun base cw ->
          let word = ref (Decoder.read_bits d cw) in
          (* Extract set bits highest-first: bit b is position
             base + (cw - 1 - b), so msb order is ascending. *)
          while !word <> 0 do
            let b = Bitops.msb !word in
            vec_push out (off + base + (cw - 1 - b));
            word := !word lxor (1 lsl b)
          done);
      vec_contents out
  | Runs ->
      let r = (Decoder.read_bits d (count_bits ~n) + 1) in
      let w = value_bits ~n in
      let starts = Array.make r 0 and lens = Array.make r 0 in
      let total = ref 0 in
      for i = 0 to r - 1 do
        starts.(i) <- Decoder.read_bits d w;
        lens.(i) <- Decoder.read_bits d w + 1;
        total := !total + lens.(i)
      done;
      let out = Array.make !total 0 in
      let k = ref 0 in
      for i = 0 to r - 1 do
        for v = starts.(i) to starts.(i) + lens.(i) - 1 do
          out.(!k) <- off + v;
          incr k
        done
      done;
      out

let decode ~n d = Posting.of_sorted_array (decode_add ~n ~base:0 d)

let cardinality ~n d =
  check_n n;
  match read_kind d with
  | Empty -> 0
  | Array -> (Decoder.read_bits d (count_bits ~n) + 1)
  | Bitmap ->
      let acc = ref 0 in
      iter_words ~n (fun _ cw -> acc := !acc + Bitops.popcount (Decoder.read_bits d cw));
      !acc
  | Runs ->
      let r = (Decoder.read_bits d (count_bits ~n) + 1) in
      let w = value_bits ~n in
      let acc = ref 0 in
      for _ = 1 to r do
        let _start = Decoder.read_bits d w in
        acc := !acc + Decoder.read_bits d w + 1
      done;
      !acc

let rank ~n d x =
  check_n n;
  if x < 0 || x > n then invalid_arg "Container.rank";
  match read_kind d with
  | Empty -> 0
  | Array ->
      let m = (Decoder.read_bits d (count_bits ~n) + 1) in
      let w = value_bits ~n in
      let i = ref 0 and stop = ref false in
      while (not !stop) && !i < m do
        if Decoder.read_bits d w >= x then stop := true else incr i
      done;
      !i
  | Bitmap ->
      let acc = ref 0 in
      let base = ref 0 in
      while !base < x do
        let cw = min 62 (n - !base) in
        let word = Decoder.read_bits d cw in
        let keep = min cw (x - !base) in
        acc := !acc + Bitops.popcount (word lsr (cw - keep));
        base := !base + cw
      done;
      !acc
  | Runs ->
      let r = (Decoder.read_bits d (count_bits ~n) + 1) in
      let w = value_bits ~n in
      let acc = ref 0 and i = ref 0 and stop = ref false in
      while (not !stop) && !i < r do
        let start = Decoder.read_bits d w in
        let len = Decoder.read_bits d w + 1 in
        if start >= x then stop := true
        else begin
          acc := !acc + min len (x - start);
          if start + len >= x then stop := true
        end;
        incr i
      done;
      !acc

let select ~n d k =
  check_n n;
  if k < 0 then invalid_arg "Container.select";
  match read_kind d with
  | Empty -> None
  | Array ->
      let m = (Decoder.read_bits d (count_bits ~n) + 1) in
      if k >= m then None
      else begin
        let w = value_bits ~n in
        (* Entries are fixed width: jump straight to entry k. *)
        Decoder.skip d (k * w);
        Some (Decoder.read_bits d w)
      end
  | Bitmap ->
      let acc = ref 0 and found = ref None in
      let base = ref 0 in
      while !found = None && !base < n do
        let cw = min 62 (n - !base) in
        let word = ref (Decoder.read_bits d cw) in
        let pc = Bitops.popcount !word in
        if !acc + pc > k then begin
          (* The target is the (k - acc)-th set bit, msb-first. *)
          let remaining = ref (k - !acc) in
          while !found = None do
            let b = Bitops.msb !word in
            if !remaining = 0 then found := Some (!base + (cw - 1 - b))
            else begin
              word := !word lxor (1 lsl b);
              decr remaining
            end
          done
        end
        else acc := !acc + pc;
        base := !base + cw
      done;
      !found
  | Runs ->
      let r = (Decoder.read_bits d (count_bits ~n) + 1) in
      let w = value_bits ~n in
      let acc = ref 0 and i = ref 0 and found = ref None in
      while !found = None && !i < r do
        let start = Decoder.read_bits d w in
        let len = Decoder.read_bits d w + 1 in
        if !acc + len > k then found := Some (start + k - !acc)
        else acc := !acc + len;
        incr i
      done;
      !found

let range_emit ~n d ~lo ~hi =
  check_n n;
  let lo = max 0 lo and hi = min (n - 1) hi in
  if lo > hi then Posting.empty
  else
    match read_kind d with
    | Empty -> Posting.empty
    | Array ->
        let m = (Decoder.read_bits d (count_bits ~n) + 1) in
        let w = value_bits ~n in
        let first = Decoder.bit_pos d in
        (* Fixed-width entries allow binary search for the first entry
           >= lo without touching the prefix. *)
        let entry i =
          Decoder.seek d (first + (i * w));
          Decoder.read_bits d w
        in
        let a = ref 0 and b = ref m in
        while !a < !b do
          let mid = (!a + !b) / 2 in
          if entry mid < lo then a := mid + 1 else b := mid
        done;
        let out = vec_create () in
        if !a < m then begin
          Decoder.seek d (first + (!a * w));
          let i = ref !a and stop = ref false in
          while (not !stop) && !i < m do
            let v = Decoder.read_bits d w in
            if v > hi then stop := true else vec_push out v;
            incr i
          done
        end;
        Posting.of_sorted_array (vec_contents out)
    | Bitmap ->
        let out = vec_create () in
        let base = ref 0 in
        (* Skip whole words strictly below lo without reading them. *)
        while !base + min 62 (n - !base) <= lo do
          let cw = min 62 (n - !base) in
          Decoder.skip d cw;
          base := !base + cw
        done;
        while !base <= hi do
          let cw = min 62 (n - !base) in
          let word = ref (Decoder.read_bits d cw) in
          while !word <> 0 do
            let b = Bitops.msb !word in
            let v = !base + (cw - 1 - b) in
            if v >= lo && v <= hi then vec_push out v;
            word := !word lxor (1 lsl b)
          done;
          base := !base + cw
        done;
        Posting.of_sorted_array (vec_contents out)
    | Runs ->
        let r = (Decoder.read_bits d (count_bits ~n) + 1) in
        let w = value_bits ~n in
        let out = vec_create () in
        let i = ref 0 and stop = ref false in
        while (not !stop) && !i < r do
          let start = Decoder.read_bits d w in
          let len = Decoder.read_bits d w + 1 in
          if start > hi then stop := true
          else begin
            let from = max start lo and until = min (start + len - 1) hi in
            for v = from to until do
              vec_push out v
            done
          end;
          incr i
        done;
        Posting.of_sorted_array (vec_contents out)

(* Chunked payloads: one container per chunk-wide slice of the
   universe, each with its own selector verdict. *)

let check_chunked ~universe ~chunk =
  if universe < 1 then invalid_arg "Container: universe width";
  if chunk < 1 then invalid_arg "Container: chunk width"

let iter_chunks ~universe ~chunk f =
  let base = ref 0 in
  while !base < universe do
    let n = min chunk (universe - !base) in
    f !base n;
    base := !base + n
  done

let encode_chunked ~universe ~chunk buf posting =
  check_chunked ~universe ~chunk;
  let a = Posting.to_array posting in
  let m = Array.length a in
  if m > 0 && (a.(0) < 0 || a.(m - 1) >= universe) then
    invalid_arg "Container.encode_chunked: position out of range";
  let i = ref 0 in
  iter_chunks ~universe ~chunk (fun base n ->
      let j = ref !i in
      while !j < m && a.(!j) < base + n do
        incr j
      done;
      let slice = Array.init (!j - !i) (fun k -> a.(!i + k) - base) in
      ignore (encode ~n buf (Posting.of_sorted_array slice));
      i := !j)

let chunked_size ~universe ~chunk posting =
  check_chunked ~universe ~chunk;
  let a = Posting.to_array posting in
  let m = Array.length a in
  let i = ref 0 in
  let total = ref 0 in
  iter_chunks ~universe ~chunk (fun base n ->
      let j = ref !i in
      while !j < m && a.(!j) < base + n do
        incr j
      done;
      let slice = Array.init (!j - !i) (fun k -> a.(!i + k) - base) in
      total := !total + encoded_size ~n (Posting.of_sorted_array slice);
      i := !j);
  !total

(* Each slice decodes into a fresh array; one concat assembles the
   posting, which adopts it after the sortedness check. *)
let decode_chunked ~universe ~chunk d =
  check_chunked ~universe ~chunk;
  let parts = ref [] in
  iter_chunks ~universe ~chunk (fun base n ->
      parts := decode_add ~n ~base d :: !parts);
  Posting.adopt (Array.concat (List.rev !parts))
