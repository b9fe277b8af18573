(** Buffered word-at-a-time bit decoder (reader side of the bit-I/O
    substrate).

    Holds up to 62 bits of the stream in a native-int cache refilled a
    word at a time from the backing bytes ({!Bitops.get_bits}), so
    fixed-width reads cost one shift and zero/one runs — the spine of
    every Elias code in {!Codes} — resolve with a count-leading-zeros
    scan instead of one closure call per bit.  This is the only
    decoder in the library; the seed's closure-per-bit reader survives
    as a test oracle.

    Bit convention matches {!Bitbuf}: bit [i] lives in byte [i / 8]
    under mask [0x80 lsr (i mod 8)], most significant bit first.

    A decoder snapshots the backing byte store without copying: it is
    invalidated by any subsequent operation that may reallocate the
    store (e.g. a [Bitbuf] write that grows the buffer). *)

type t

(** [of_bytes ?pos ?limit data] decodes [data] starting at bit [pos]
    (default 0) up to the absolute bit bound [limit] (default the full
    byte length).  Reads past [limit] raise [Invalid_argument]. *)
val of_bytes : ?pos:int -> ?limit:int -> bytes -> t

(** [of_bitbuf ?pos buf] decodes the bits written to [buf] so far.
    Zero-copy; see the snapshot caveat above. *)
val of_bitbuf : ?pos:int -> Bitbuf.t -> t

(** [counted ~data ~pos ~limit ~block_bits ~charge ~charge_run] is a
    decoder whose consumed bits are charged to the simulator in stream
    order, exactly once, on consumption (cache refills are not
    charged).  Every read reports its bit range to [charge ~pos ~len],
    except in {!gamma_prefix_into}: there a codeword that fits the
    cache window is counted against the [block_bits]-bit block it
    lies in, and each maximal run of such touches on one block is
    reported once as [charge_run ~block ~touches ~bits].  A run stands
    for [touches] consecutive single-block accesses to [block] and
    [bits] consumed bits; the bits of a codeword that crosses a block
    boundary belong to the run of its last block.  Pending runs are
    reported before any range charge, so runs and ranges arrive in
    stream order.  A caller that applies a run as [touches] accesses
    to [block] followed by [bits] bits, and a range as one access to
    each covering block followed by [len] bits, sees the same access
    sequence and bit count as per-codeword charging — also up to an
    exception raised by a callback.  This is how
    [Iosim.Device.decoder] keeps simulator counters identical to
    per-bit semantics.  [block_bits] must be positive. *)
val counted :
  data:bytes ->
  pos:int ->
  limit:int ->
  block_bits:int ->
  charge:(pos:int -> len:int -> unit) ->
  charge_run:(block:int -> touches:int -> bits:int -> unit) ->
  t

(** [set_on_refill t f] installs an observation hook called after each
    cache top-up with the absolute bit position and width of the
    loaded range.  Refills stay uncharged; this is for tracing only
    ([Iosim.Device.decoder] wires it to [Obs.Trace] when tracing is
    on).  When no hook is installed the cost is one branch per refill. *)
val set_on_refill : t -> (pos:int -> len:int -> unit) -> unit

(** Absolute position (in bits) of the next unread bit. *)
val bit_pos : t -> int

(** Bits left before the limit. *)
val remaining : t -> int

(** Reposition to an absolute bit offset in [0 .. limit], discarding
    the cache. *)
val seek : t -> int -> unit

(** [skip t n] advances [n >= 0] bits without reading (and without
    charging). *)
val skip : t -> int -> unit

(** [peek t w] returns the next [w] bits ([0 <= w <= 62]),
    most-significant first, without advancing. *)
val peek : t -> int -> int

(** [consume t w] advances past [w] bits previously made available by
    {!peek} (requires [w] not to exceed the peeked width). *)
val consume : t -> int -> unit

(** [read_bits t w] returns the next [w] bits ([0 <= w <= 62]),
    most-significant first, and advances.  Raises [Invalid_argument]
    past the limit. *)
val read_bits : t -> int -> int

val read_bit : t -> bool

(** Length of the maximal run of zero bits at the current position;
    consumes the run {e and} the terminating one bit.  Raises
    [Invalid_argument] if the stream ends before a terminator.

    [max] (default unlimited) is a decode budget: a run longer than
    [max] raises [Secidx_error.Corrupt] without consuming the excess.
    Codecs pass the largest run any 62-bit-representable value can
    produce (61 for Elias codes), so adversarial bit patterns are
    rejected in O(max) work. *)
val zero_run : ?max:int -> t -> int

(** Same with the roles of zero and one swapped (unary's shape). *)
val one_run : ?max:int -> t -> int

(** [window t] tops the cache up (when below half a window) and
    returns [(cache, avail)]: the next [avail] stream bits,
    right-aligned in [cache], with every higher bit zero.  Fused
    decoders in {!Codes} CLZ-scan this window to locate a whole
    codeword and retire it with one {!advance}; a codeword longer
    than [avail] must fall back to {!zero_run}/{!read_bits}. *)
val window : t -> int * int

(** [advance t w] consumes [w] bits out of the window returned by
    {!window} (requires [w <= avail]; charges like any read). *)
val advance : t -> int -> unit

(** Fused Elias-gamma decode — semantically [zero_run] followed by
    reading the same number of mantissa bits, but retiring short
    codewords in a single CLZ + consume.  {!Codes.decode_gamma} and
    the bulk posting loops delegate here; it lives on the decoder so
    the cache state never leaves registers on the hot path. *)
val gamma : t -> int

(** [gamma_prefix_into ?at t ~prev ~count out] decodes [count] gamma
    codewords and stores their running sums starting from [prev] into
    [out.(at .. at + count - 1)] ([at] defaults to 0) — the bulk gap-decode loop behind
    [Gap_codec.decode_into] with [prev] the predecessor position
    ([-1] for none).  Consumes, refills and fails like [count] single
    {!gamma} calls.  On a {!counted} decoder it charges in block runs
    (see there) instead of once per codeword; a codeword longer than
    the cache window is charged per range, as {!gamma} charges it. *)
val gamma_prefix_into :
  ?at:int -> t -> prev:int -> count:int -> int array -> unit
