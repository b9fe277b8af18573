(** Semi-dynamic (append-only) secondary index — §4.1, Theorems 4
    and 5.

    The static layout of Theorem 2 is augmented so that each stored
    node's bitmap has an {e append chain}: extra blocks holding the
    gamma-coded gaps of positions appended since the last rebuild.
    Appending character [α] at position [n] routes through the frozen
    tree (see {!Frozen}) and extends the tail block of one chain per
    materialized level — [O(lg lg n)] block writes per append, the
    Theorem 4 bound.

    With [buffered = true] (Theorem 5) appends are first collected in
    a root buffer of [b] records held in internal memory (the paper
    pins the root buffer), and chains are extended in batches, so the
    amortized cost per append drops below one I/O at the price of the
    query also scanning the root buffer.

    Balance is maintained by global rebuild every time the string
    doubles — the amortized-rebuild substitution documented in
    DESIGN.md. *)

type t

(** [build device ~sigma x]: the Theorem 2 layout over [x] (branching
    [c], default 8; levels from {!Wbb.store_levels}, extents and chain
    blocks gap-coded with [code], default gamma) and the
    per-character count array ({!Char_counts}).  [buffered] (default
    [false]) selects Theorem 5's root buffer; [complement] (default
    [true]) the complement rule. *)
val build :
  ?c:int ->
  ?complement:bool ->
  ?buffered:bool ->
  ?code:Cbitmap.Gap_codec.code ->
  Iosim.Device.t ->
  sigma:int ->
  int array ->
  t

(** Current string length. *)
val length : t -> int

(** Append one character at position [length t]. *)
val append : t -> int -> unit

val query : t -> lo:int -> hi:int -> Indexing.Answer.t

(** Batched execution (PR 5): the range evaluator of [query] per
    unique range, with each stored node's slices (base stream + chain
    blocks) decoded at most once per batch. *)
val query_batch : t -> (int * int) array -> Indexing.Answer.t array

(** Number of global rebuilds performed so far. *)
val rebuilds : t -> int

(** The current stored levels' base tables, leaves first. *)
val tables : t -> Indexing.Stream_table.t list

(** The per-character count array (for white-box tests).  With
    [buffered], it lags the string by the appends still in the root
    buffer. *)
val counts : t -> Char_counts.t

(** Space used, in bits (base layout + chains + directory). *)
val size_bits : t -> int

(** The index as it stands, as an {!Indexing.Instance.t} ([n] and
    [size_bits] are read now: package again after appends). *)
val instance_of : t -> Indexing.Instance.t

(** [build], then {!instance_of}. *)
val instance :
  ?c:int ->
  ?complement:bool ->
  ?buffered:bool ->
  Iosim.Device.t ->
  sigma:int ->
  int array ->
  Indexing.Instance.t
