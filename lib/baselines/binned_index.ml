type t = {
  chars : Indexing.Stream_table.t;
  bins : Indexing.Stream_table.t;
  char_postings : Cbitmap.Posting.t array; (* kept: [chars]' repair source *)
  bin_postings : Cbitmap.Posting.t array; (* kept: [bins]' repair source *)
  w : int;
  n : int;
  sigma : int;
  arena : Indexing.Stream_table.Arena.t;
}

let build ?code device ~sigma ~w x =
  if w < 1 then invalid_arg "Binned_index.build";
  let postings = Indexing.Common.positions_by_char ~sigma x in
  let nbins = (sigma + w - 1) / w in
  let bins =
    Array.init nbins (fun b ->
        let lo = b * w and hi = min sigma ((b + 1) * w) - 1 in
        Cbitmap.Posting.union_many
          (List.init (hi - lo + 1) (fun k -> postings.(lo + k))))
  in
  {
    chars = Indexing.Stream_table.build ?code device postings;
    bins = Indexing.Stream_table.build ?code device bins;
    char_postings = postings;
    bin_postings = bins;
    w;
    n = Array.length x;
    sigma;
    arena = Indexing.Stream_table.Arena.create ();
  }

let query_clamped t ~lo ~hi =
  Indexing.Stream_table.Arena.clear t.arena;
  let w = t.w in
  (* Bins fully contained in [lo..hi]. *)
  let first_full = (lo + w - 1) / w in
  let last_full = ((hi + 1) / w) - 1 in
  let run tab ~lo ~hi = Indexing.Stream_table.extents tab ~lo ~hi in
  let extents =
    Obs.Metrics.(in_phase directory) (fun () ->
        if first_full > last_full then
          (* No full bin: the whole range comes from per-char bitmaps. *)
          run t.chars ~lo ~hi
        else begin
          let left =
            if lo < first_full * w then
              run t.chars ~lo ~hi:((first_full * w) - 1)
            else []
          in
          let middle = run t.bins ~lo:first_full ~hi:last_full in
          let right =
            if hi >= (last_full + 1) * w then
              run t.chars ~lo:((last_full + 1) * w) ~hi
            else []
          in
          left @ middle @ right
        end)
  in
  Indexing.Answer.Direct
    (Obs.Metrics.(in_phase payload) (fun () ->
         Indexing.Stream_table.Arena.union t.arena
           (List.map (Indexing.Stream_table.Arena.read t.arena) extents)))

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) -> query_clamped t ~lo ~hi

let size_bits t = Indexing.Stream_table.size_bits t.chars + Indexing.Stream_table.size_bits t.bins

let instance ?code device ~sigma ~w x =
  let t = build ?code device ~sigma ~w x in
  {
    Indexing.Instance.name = Printf.sprintf "binned-w%d" w;
    device;
    n = t.n;
    sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = None;
    integrity =
      Some
        (Indexing.Integrity.combine
           [
             Indexing.Stream_table.integrity t.chars ~source:(fun () ->
                 t.char_postings);
             Indexing.Stream_table.integrity t.bins ~source:(fun () ->
                 t.bin_postings);
           ]);
  }
