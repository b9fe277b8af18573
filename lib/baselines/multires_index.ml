type t = {
  tables : Indexing.Stream_table.t array; (* tables.(k): bins of width w^k *)
  streams : Cbitmap.Posting.t array array; (* kept: [tables]' repair sources *)
  widths : int array; (* widths.(k) = w^k *)
  w : int;
  n : int;
  sigma : int;
  arena : Indexing.Stream_table.Arena.t;
}

let build_with_widths ?code device ~sigma ~widths x =
  let postings = Indexing.Common.positions_by_char ~sigma x in
  let streams =
    Array.map
      (fun width ->
        if width = 1 then postings
        else
          Array.init ((sigma + width - 1) / width) (fun b ->
              let lo = b * width and hi = min sigma ((b + 1) * width) - 1 in
              Cbitmap.Posting.union_many
                (List.init (hi - lo + 1) (fun k -> postings.(lo + k)))))
      widths
  in
  {
    tables = Array.map (Indexing.Stream_table.build ?code device) streams;
    streams;
    widths;
    w = 0;
    n = Array.length x;
    sigma;
    arena = Indexing.Stream_table.Arena.create ();
  }

let build ?code device ~sigma ~w x =
  if w < 2 then invalid_arg "Multires_index.build: w >= 2";
  let rec geom acc width =
    if width >= sigma then List.rev acc else geom ((width * w) :: acc) (width * w)
  in
  let widths = Array.of_list (1 :: geom [] 1) in
  let t = build_with_widths ?code device ~sigma ~widths x in
  { t with w }

let build_widths ?code device ~sigma ~widths x =
  (match widths with
  | 1 :: _ -> ()
  | _ -> invalid_arg "Multires_index.build_widths: widths must start at 1");
  List.iteri
    (fun i w ->
      if i > 0 && w <= List.nth widths (i - 1) then
        invalid_arg "Multires_index.build_widths: widths must increase")
    widths;
  build_with_widths ?code device ~sigma ~widths:(Array.of_list widths) x

let levels t = Array.length t.tables

(* Greedy left-to-right canonical cover: from position [lo], take the
   widest aligned bin that starts at [lo] and fits within [hi]. *)
let cover t ~lo ~hi =
  let rec go lo acc =
    if lo > hi then List.rev acc
    else begin
      let best = ref 0 in
      Array.iteri
        (fun k width ->
          if lo mod width = 0 && lo + width - 1 <= hi then best := k)
        t.widths;
      let k = !best in
      let width = t.widths.(k) in
      go (lo + width) ((k, lo / width) :: acc)
    end
  in
  go lo []

let query_clamped t ~lo ~hi =
  Indexing.Stream_table.Arena.clear t.arena;
  let pieces = cover t ~lo ~hi in
  let extents =
    Obs.Metrics.(in_phase directory) (fun () ->
        List.concat_map
          (fun (k, b) -> Indexing.Stream_table.extents t.tables.(k) ~lo:b ~hi:b)
          pieces)
  in
  Indexing.Answer.Direct
    (Obs.Metrics.(in_phase payload) (fun () ->
         Indexing.Stream_table.Arena.union t.arena
           (List.map (Indexing.Stream_table.Arena.read t.arena) extents)))

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) -> query_clamped t ~lo ~hi

let size_bits t =
  Array.fold_left (fun acc tab -> acc + Indexing.Stream_table.size_bits tab) 0 t.tables

let instance ?code device ~sigma ~w x =
  let t = build ?code device ~sigma ~w x in
  {
    Indexing.Instance.name = Printf.sprintf "multires-w%d" w;
    device;
    n = t.n;
    sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    batch = None;
    integrity =
      Some
        (Indexing.Integrity.combine
           (Array.to_list
              (Array.map2
                 (fun tab streams ->
                   Indexing.Stream_table.integrity tab ~source:(fun () ->
                       streams))
                 t.tables t.streams)));
  }
