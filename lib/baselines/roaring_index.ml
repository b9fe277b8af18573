type t = Cbitmap_index.t

let build ?chunk device ~sigma x =
  let postings = Indexing.Common.positions_by_char ~sigma x in
  let universe = max 1 (Array.length x) in
  let chunk =
    match chunk with
    | Some c ->
        if c < 1 then invalid_arg "Roaring_index.build: chunk";
        min c universe
    | None -> min (Iosim.Device.block_bits device) universe
  in
  let layout = Indexing.Stream_table.Hybrid { universe; chunk } in
  Cbitmap_index.of_table ~name:"bitmap-roaring"
    (Indexing.Stream_table.build ~layout device postings)
    ~postings ~n:(Array.length x) ~sigma

let payload_bits t = Indexing.Stream_table.payload_bits (Cbitmap_index.table t)

let instance ?chunk device ~sigma x =
  Cbitmap_index.instance_of (build ?chunk device ~sigma x)
