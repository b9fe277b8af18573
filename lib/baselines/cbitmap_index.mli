(** Per-character compressed bitmap index (§1.2): each character's
    position set is run-length/gap compressed with gamma codes; a
    range query reads and merges the bitmaps of every character in the
    range.

    Space is within a constant factor of optimal, but a width-[ℓ]
    query over near-uniform data reads [Θ((nℓ/σ)·lg σ)] bits where the
    output needs only [Θ((nℓ/σ)·lg(σ/ℓ))] — the factor
    [Ω(lg σ / lg(σ/ℓ))] gap the paper's introduction computes. *)

type t

val build :
  ?code:Cbitmap.Gap_codec.code -> Iosim.Device.t -> sigma:int -> int array -> t

val query : t -> lo:int -> hi:int -> Indexing.Answer.t

(** Batched execution (PR 5): each character's stream decodes at most
    once per batch; uncached runs are prefetched. *)
val query_batch : t -> (int * int) array -> Indexing.Answer.t array

(** [of_table ~name table ~postings ~n ~sigma]: the index over a table
    holding one stream per character of a length-[n] string, in any
    payload layout; [postings] are those streams, kept in memory as
    the table's repair source; [name] is its instance name.
    {!Roaring_index} is this over a [Hybrid] table. *)
val of_table :
  name:string ->
  Indexing.Stream_table.t ->
  postings:Cbitmap.Posting.t array ->
  n:int ->
  sigma:int ->
  t

val table : t -> Indexing.Stream_table.t
val instance_of : t -> Indexing.Instance.t

val instance :
  ?code:Cbitmap.Gap_codec.code ->
  Iosim.Device.t ->
  sigma:int ->
  int array ->
  Indexing.Instance.t
