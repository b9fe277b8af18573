(* Buffered word-at-a-time bit decoder (the PR 2 codec engine core).

   The one decode path in [lib] (the per-bit closure reader it
   replaced is a test oracle now): the decoder keeps up to 62 bits of the stream in a native-int cache,
   refilled a word at a time from the backing bytes via
   [Bitops.get_bits], so fixed-width reads are one shift+mask and
   unary/gamma zero-runs resolve in O(1) per refill window with a
   CLZ-style scan ([Bitops.msb]) instead of one closure call per bit.

   Invariant: the next [avail] bits of the stream sit right-aligned in
   [cache] — the stream-wise first of them at bit [avail - 1] — and
   every bit of [cache] at position >= [avail] is zero.  [avail] never
   exceeds 62, so [cache] stays nonnegative and all shifts are safe on
   OCaml's 63-bit ints.  The absolute position of the next unread
   stream bit is therefore [fetch - avail].

   Simulator accounting: a counted decoder (see [counted] /
   [Iosim.Device.decoder]) charges its callback on *consume*, not on
   refill — prefetching bits into the cache is free until they are
   actually delivered, which keeps [Iosim.Stats.bits_read] and the
   touched block sequence identical to the seed per-bit semantics.
   The bulk gamma kernel ([gamma_prefix_into]) charges the same
   sequence in block runs instead of one callback per codeword. *)

type counter = {
  block_bits : int; (* block size the run charges group by *)
  charge : pos:int -> len:int -> unit;
  charge_run : block:int -> touches:int -> bits:int -> unit;
      (* the bulk kernel's block-run report *)
}

type t = {
  data : bytes; (* backing store snapshot (not copied) *)
  limit : int; (* absolute bit bound; reads past it raise *)
  mutable fetch : int; (* absolute index of the next unfetched bit *)
  mutable cache : int; (* right-aligned window of fetched, unread bits *)
  mutable avail : int; (* number of valid bits in [cache], <= 62 *)
  counter : counter option; (* [Some] on a [counted] decoder *)
  mutable on_refill : (pos:int -> len:int -> unit) option;
      (* observation hook (tracing): called after each cache top-up
         with the absolute position and width of the loaded bits.
         [None] by default — the cost when unused is one branch per
         refill, not per bit. *)
}

let cache_bits = 62

let make ~data ~pos ~limit ~counter =
  if limit < 0 || limit > 8 * Bytes.length data then
    invalid_arg "Decoder: limit out of range";
  if pos < 0 || pos > limit then invalid_arg "Decoder: pos out of range";
  { data; limit; fetch = pos; cache = 0; avail = 0; counter; on_refill = None }

let of_bytes ?(pos = 0) ?limit data =
  let limit =
    match limit with Some l -> l | None -> 8 * Bytes.length data
  in
  make ~data ~pos ~limit ~counter:None

let of_bitbuf ?(pos = 0) buf =
  make ~data:(Bitbuf.backing buf) ~pos ~limit:(Bitbuf.length buf) ~counter:None

let counted ~data ~pos ~limit ~block_bits ~charge ~charge_run =
  if block_bits <= 0 then invalid_arg "Decoder.counted: block_bits";
  make ~data ~pos ~limit ~counter:(Some { block_bits; charge; charge_run })

let set_on_refill t f = t.on_refill <- Some f

let note_refill t ~pos ~len =
  match t.on_refill with Some f -> f ~pos ~len | None -> ()

let bit_pos t = t.fetch - t.avail
let remaining t = t.limit - bit_pos t

let seek t pos =
  if pos < 0 || pos > t.limit then invalid_arg "Decoder.seek";
  t.fetch <- pos;
  t.cache <- 0;
  t.avail <- 0

let skip t n =
  if n < 0 then invalid_arg "Decoder.skip";
  seek t (bit_pos t + n)

(* Top up the cache from the backing bytes.  Never charges.  The hot
   case is a branch-free straight-line load of the 56-bit window
   holding [fetch] (seven whole bytes, so no partial-byte masking);
   near the end of the backing store or the bit limit it falls back to
   the generic byte loop.  One call makes progress whenever unread
   bits remain but may stop short of a full cache — callers that need
   a specific width loop via [ensure]. *)
let refill t =
  let fetch = t.fetch and avail = t.avail in
  let b = fetch lsr 3 and off = fetch land 7 in
  let take = min (cache_bits - avail) (56 - off) in
  if b + 7 <= Bytes.length t.data && fetch + take <= t.limit then begin
    let d = t.data in
    let w =
      (Char.code (Bytes.unsafe_get d b) lsl 48)
      lor (Char.code (Bytes.unsafe_get d (b + 1)) lsl 40)
      lor (Char.code (Bytes.unsafe_get d (b + 2)) lsl 32)
      lor (Char.code (Bytes.unsafe_get d (b + 3)) lsl 24)
      lor (Char.code (Bytes.unsafe_get d (b + 4)) lsl 16)
      lor (Char.code (Bytes.unsafe_get d (b + 5)) lsl 8)
      lor Char.code (Bytes.unsafe_get d (b + 6))
    in
    t.cache <- (t.cache lsl take) lor ((w lsr (56 - off - take)) land ((1 lsl take) - 1));
    t.fetch <- fetch + take;
    t.avail <- avail + take;
    note_refill t ~pos:fetch ~len:take
  end
  else begin
    let take = min (cache_bits - avail) (t.limit - fetch) in
    if take > 0 then begin
      t.cache <-
        (t.cache lsl take) lor Bitops.get_bits t.data ~pos:fetch ~width:take;
      t.fetch <- fetch + take;
      t.avail <- avail + take;
      note_refill t ~pos:fetch ~len:take
    end
  end

(* Refill until [avail >= w] or the stream is exhausted (a single
   [refill] step tops up at most 56 bits). *)
let rec ensure t w =
  if t.avail < w then begin
    let before = t.avail in
    refill t;
    if t.avail > before then ensure t w
  end

(* Drop [w] cached bits; requires [w <= avail].  [(1 lsl a) - 1] is
   the correct mask even at [a = 62], where the shift wraps to
   [min_int] and the subtraction yields [max_int] (62 ones). *)
let consume_unchecked t w =
  (match t.counter with
  | Some c -> c.charge ~pos:(t.fetch - t.avail) ~len:w
  | None -> ());
  let a = t.avail - w in
  t.avail <- a;
  t.cache <- t.cache land ((1 lsl a) - 1)

let peek t w =
  if w < 0 || w > cache_bits then invalid_arg "Decoder.peek: width";
  if t.avail < w then begin
    ensure t w;
    if t.avail < w then invalid_arg "Decoder.peek: past end"
  end;
  t.cache lsr (t.avail - w)

let consume t w =
  if w < 0 || w > t.avail then invalid_arg "Decoder.consume";
  consume_unchecked t w

let read_bits t w =
  if w < 0 || w > cache_bits then invalid_arg "Decoder.read_bits: width";
  if w = 0 then 0
  else begin
    if t.avail < w then begin
      ensure t w;
      if t.avail < w then invalid_arg "Decoder.read_bits: past end"
    end;
    (* no mask needed: cache bits above [avail] are zero *)
    let v = t.cache lsr (t.avail - w) in
    consume_unchecked t w;
    v
  end

let read_bit t = read_bits t 1 = 1

(* Shared scan for maximal runs.  [ones = false] counts leading zeros
   up to and including the terminating one bit (the gamma/unary-zeros
   shape); [ones = true] counts leading ones up to and including the
   terminating zero.  Each loop iteration disposes of a full cache
   window, so a run of length r costs O(r / 62) refills, not O(r).

   [max] is the decode budget: a run longer than [max] cannot belong
   to any codeword whose value fits the 62-bit word bound for the
   calling code, so it is typed corruption, not a programming error.
   The scan raises as soon as the budget is exceeded — before
   consuming the excess — so a malformed all-run stream costs O(max)
   work, never O(stream). *)
let rec run_scan t ~ones ~max acc =
  if t.avail = 0 then begin
    refill t;
    if t.avail = 0 then invalid_arg "Decoder: unterminated run"
  end;
  let window_mask = (1 lsl t.avail) - 1 in
  let x = if ones then t.cache lxor window_mask else t.cache in
  if x = 0 then begin
    (* whole window is run bits: swallow it and keep scanning *)
    let n = t.avail in
    if acc + n > max then
      Secidx_error.corrupt "Decoder: run exceeds budget (%d > %d)" (acc + n)
        max;
    consume_unchecked t n;
    run_scan t ~ones ~max (acc + n)
  end
  else begin
    let lead = t.avail - 1 - Bitops.msb x in
    if acc + lead > max then
      Secidx_error.corrupt "Decoder: run exceeds budget (%d > %d)"
        (acc + lead) max;
    consume_unchecked t (lead + 1);
    acc + lead
  end

let zero_run ?(max = max_int) t = run_scan t ~ones:false ~max 0
let one_run ?(max = max_int) t = run_scan t ~ones:true ~max 0

(* Fused-decode support (see [Codes.decode_rice] etc.): expose the
   cache window so a caller can CLZ-scan a whole codeword and retire
   it with a single consume.  Topping up only below half a window
   keeps the amortized refill cost at one [Bitops.get_bits] per ~31
   decoded bits; short codewords then decode without ever leaving the
   cache, and anything longer than [avail] falls back to the generic
   run+bits path. *)
let window t =
  if t.avail < 32 then refill t;
  (t.cache, t.avail)

let advance t w =
  if w < 0 || w > t.avail then invalid_arg "Decoder.advance";
  consume_unchecked t w

(* Fused Elias-gamma decode, the single hottest codec operation
   (Theorem 2's posting lists are gamma-coded).  Kept inside this
   module as one function so the cache fields stay in registers
   across the CLZ scan and the consume: when the whole codeword sits
   in the window, the shift down past it *is* the value (the leading
   zeros contribute nothing above the mantissa). *)
let gamma_slow t =
  (* A gamma value fits 62 bits iff its zero run is at most 61. *)
  let k = zero_run ~max:61 t in
  if k = 0 then 1 else (1 lsl k) lor read_bits t k

(* Local copy of [Bitops.msb]'s smear + SWAR popcount (see there for
   the derivation), so the per-codeword CLZ costs no cross-module
   call — the build has no flambda, so [Bitops.msb]/[popcount] stay
   out-of-line otherwise.  Differentially pinned against the per-bit
   oracle's [msb] by the codec-engine test suite. *)
let swar_m1 = (0x55555555 lsl 32) lor 0x55555555
let swar_m2 = (0x33333333 lsl 32) lor 0x33333333
let swar_m4 = (0x0f0f0f0f lsl 32) lor 0x0f0f0f0f
let swar_h01 = (0x01010101 lsl 32) lor 0x01010101

let[@inline] msb_inline x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  let x = x - ((x lsr 1) land swar_m1) in
  let x = (x land swar_m2) + ((x lsr 2) land swar_m2) in
  let x = (x + (x lsr 4)) land swar_m4 in
  ((x * swar_h01) lsr 56) - 1

(* Retire a [len]-bit codeword out of the current window and return
   the bits below the leading zeros (which contribute nothing above
   the mantissa, so the shift down *is* the gamma value). *)
let[@inline] retire t cache avail len =
  (match t.counter with
  | Some c -> c.charge ~pos:(t.fetch - avail) ~len
  | None -> ());
  let a = avail - len in
  t.avail <- a;
  t.cache <- cache land ((1 lsl a) - 1);
  cache lsr a

(* Leading-zero count of a byte value ([8] for zero): the common-case
   CLZ for codewords whose zero run fits the window's top byte, with
   ~load latency instead of the longer SWAR smear dependency chain. *)
let lzc8 =
  let s = Bytes.make 256 '\008' in
  for b = 1 to 255 do
    let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + 1) in
    Bytes.unsafe_set s b (Char.unsafe_chr (8 - go b 0))
  done;
  Bytes.unsafe_to_string s

let gamma_general t cache avail =
  if cache = 0 then gamma_slow t
  else begin
    let k = avail - 1 - msb_inline cache in
    let len = (k lsl 1) + 1 in
    if len > avail then gamma_slow t else retire t cache avail len
  end

let[@inline] gamma t =
  if t.avail < 32 then refill t;
  let cache = t.cache and avail = t.avail in
  if avail >= 8 then begin
    let top = cache lsr (avail - 8) in
    if top <> 0 then begin
      (* zero run inside the top byte: k <= 7, len <= 15 *)
      let k = Char.code (String.unsafe_get lzc8 top) in
      let len = (k lsl 1) + 1 in
      if len <= avail then retire t cache avail len
      else gamma_general t cache avail
    end
    else gamma_general t cache avail
  end
  else gamma_general t cache avail

(* Length of the gamma codeword at the top of a window, or 0 when it
   does not fit the window (the case [gamma] sends to [gamma_slow]).
   The same decision as [gamma]'s byte-table and CLZ branches, which
   agree on every window, so the bulk kernel below retires exactly the
   codewords [gamma] would retire in the window and takes the slow
   path on exactly the others. *)
let[@inline] window_gamma_len cache avail =
  if cache = 0 then 0
  else begin
    let k =
      if avail >= 8 then begin
        let top = cache lsr (avail - 8) in
        if top <> 0 then Char.code (String.unsafe_get lzc8 top)
        else avail - 1 - msb_inline cache
      end
      else avail - 1 - msb_inline cache
    in
    let len = (k lsl 1) + 1 in
    if len <= avail then len else 0
  end

(* The counted kernel.  A codeword that fits the window is retired
   with no callback and counted against the block run it ends in:
   [rb] is the run's block, [rt] its touches so far, [rmark] the
   stream position where the bits it owns start, and [rend] the end of
   [rb] (a codeword ending at or before [rend] touches only [rb], since
   positions only grow).  A codeword that crosses into a later block
   touches every block it covers, in order: the run on each block it
   leaves is reported, and the codeword's bits go to the run of its
   last block.  The device applies a run's touches before its bits, so
   a fault on a run's first touch leaves exactly the bits of the
   codewords that ended before it charged — what per-codeword charging
   leaves.  A codeword that does not fit is charged per range through
   [gamma_slow], after the pending run is reported, so runs and ranges
   reach the device in stream order. *)
let gamma_prefix_runs t c ~prev ~at ~count out =
  let bb = c.block_bits and report = c.charge_run in
  let count = at + count in
  let flush rb rt rmark pos =
    if rt > 0 then report ~block:rb ~touches:rt ~bits:(pos - rmark)
  in
  let rec go i acc rb rt rmark rend =
    if i = count then flush rb rt rmark (t.fetch - t.avail)
    else begin
      if t.avail < 32 then refill t;
      let cache = t.cache and avail = t.avail in
      let len = window_gamma_len cache avail in
      if len = 0 then begin
        flush rb rt rmark (t.fetch - avail);
        let acc = acc + gamma_slow t in
        Array.unsafe_set out i acc;
        go (i + 1) acc (-1) 0 0 0
      end
      else begin
        let pos = t.fetch - avail in
        let stop = pos + len in
        let a = avail - len in
        t.avail <- a;
        t.cache <- cache land ((1 lsl a) - 1);
        let acc = acc + (cache lsr a) in
        Array.unsafe_set out i acc;
        if stop <= rend then go (i + 1) acc rb (rt + 1) rmark rend
        else begin
          (* touches on the blocks the codeword covers, in order *)
          let last = (stop - 1) / bb in
          let rb = ref rb and rt = ref rt and rmark = ref rmark in
          for b = pos / bb to last do
            if b = !rb then incr rt
            else begin
              flush !rb !rt !rmark pos;
              rb := b;
              rt := 1;
              rmark := pos
            end
          done;
          go (i + 1) acc last !rt !rmark ((last + 1) * bb)
        end
      end
    end
  in
  go at prev (-1) 0 0 0

(* Bulk gamma gap decode: read [count] codewords and write the running
   sums [prev + g1, prev + g1 + g2, ...] into [out.(at .. at + count - 1)].
   With gaps defined as [p0 + 1, p1 - p0, ...] this turns a gamma
   stream back into absolute positions when [prev] is the predecessor
   (or [-1] for none) — the Theorem 2 posting-list hot loop.  Living
   here keeps the whole loop on local decoder state with no
   per-codeword cross-module call.  A counted decoder charges in block
   runs (see [gamma_prefix_runs]); the sequence of block touches and
   the bits charged are those of [count] single [gamma] calls. *)
let gamma_prefix_into ?(at = 0) t ~prev ~count out =
  if at < 0 || count < 0 || count > Array.length out - at then
    invalid_arg "Decoder.gamma_prefix_into";
  match t.counter with
  | Some c -> gamma_prefix_runs t c ~prev ~at ~count out
  | None ->
      let acc = ref prev in
      for i = at to at + count - 1 do
        acc := !acc + gamma t;
        Array.unsafe_set out i !acc
      done
