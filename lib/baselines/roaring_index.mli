(** Per-character Roaring-style hybrid container index (PR 7).

    Same shape as the gamma-gap {!Cbitmap_index} — one stream per
    character over a shared {!Indexing.Stream_table} — but each
    stream's payload is a sequence of adaptive containers
    ({!Cbitmap.Container}): the position universe [0 .. n-1] is cut
    into [chunk]-wide slices and every slice is independently encoded
    as a sorted array (sparse), literal bitmap (dense) or run list
    (clustered), whichever the exact size formulas make smallest.  A
    stream mixing densities therefore adapts within one extent, which
    no single codec does.

    [chunk] defaults to the device block width, so a dense slice's
    literal bitmap fills exactly one block.  Queries, batches,
    directory, framing, integrity and prefetch are {!Cbitmap_index}'s
    over the hybrid table. *)

type t = Cbitmap_index.t

val build : ?chunk:int -> Iosim.Device.t -> sigma:int -> int array -> t

(** Payload bits only (sum of container sizes, excluding directory and
    frame headers). *)
val payload_bits : t -> int

val instance :
  ?chunk:int -> Iosim.Device.t -> sigma:int -> int array -> Indexing.Instance.t
