module Split = Hashing.Universal.Split

type t = {
  base : Static_index.t;
  k : int;
  fams : Split.t array; (* fams.(j-1) = h_j *)
  (* hashed_levels.(l).(j-1): hashed bitmaps of internal level l *)
  hashed_levels : Indexing.Stream_table.t option array array;
  hashed_leaves : Indexing.Stream_table.t array; (* per j *)
}

type answer =
  | Exact of Indexing.Answer.t
  | Hashed of {
      j : int;
      fam : Split.t;
      hashed : Cbitmap.Posting.t;
      z : int;
    }

let hash_posting fam p =
  Cbitmap.Posting.of_list
    (Cbitmap.Posting.fold (fun acc v -> Split.hash fam v :: acc) [] p)

let build ?(seed = 0x5ec1d) ?c ?code ?payload device ~sigma x =
  let base = Static_index.build ?c ?code ?payload device ~sigma x in
  let tree = Static_index.tree base in
  let n = tree.Wbb.n in
  let k = max 1 (Bitio.Codes.floor_log2 (max 2 (Bitio.Codes.floor_log2 (max 2 n)))) in
  let rng = Hashing.Universal.Rng.create ~seed in
  let fams = Array.init k (fun i -> Split.create rng ~j:(i + 1)) in
  let mat = Static_index.materialized_levels base in
  let height = tree.Wbb.height in
  let hashed_levels =
    Array.init (height + 1) (fun l ->
        if
          l >= 1 && List.mem l mat
          && Array.length tree.Wbb.internal_by_level.(l - 1) > 0
        then
          Array.map
            (fun fam ->
              Some
                (Indexing.Stream_table.build ?code device
                   (Array.map
                      (fun v -> hash_posting fam (Wbb.positions tree v))
                      tree.Wbb.internal_by_level.(l - 1))))
            fams
        else Array.map (fun _ -> None) fams)
  in
  let hashed_leaves =
    Array.map
      (fun fam ->
        Indexing.Stream_table.build ?code device
          (Array.map
             (fun v -> hash_posting fam (Wbb.positions tree v))
             tree.Wbb.leaves))
      fams
  in
  { base; k; fams; hashed_levels; hashed_leaves }

let k t = t.k
let base t = t.base

let choose_j t ~epsilon ~z =
  if epsilon <= 0.0 then t.k + 1
  else begin
    let rec go j =
      if j > t.k then j
      else if
        (* 2^(2^j) > z / epsilon *)
        float_of_int (1 lsl (1 lsl j)) > float_of_int z /. epsilon
      then j
      else go (j + 1)
    in
    go 1
  end

let level t ~epsilon ~z = choose_j t ~epsilon ~z

let query t ~epsilon ~lo ~hi =
  let s, e = Static_index.entry_bounds t.base ~lo ~hi in
  let z = e - s in
  let j = choose_j t ~epsilon ~z in
  if z = 0 then Exact (Indexing.Answer.Direct Cbitmap.Posting.empty)
  else if j > t.k then Exact (Static_index.query t.base ~lo ~hi)
  else begin
    let extents =
      Obs.Metrics.phase "directory" (fun () ->
          List.concat_map
            (fun { Static_index.storage; first; last } ->
              let tab =
                match storage with
                | `Leaf -> t.hashed_leaves.(j - 1)
                | `Level l -> Option.get t.hashed_levels.(l).(j - 1)
              in
              Indexing.Stream_table.extents tab ~lo:first ~hi:last)
            (Static_index.plan_charged t.base ~s ~e))
    in
    let hashed = Indexing.Stream_table.union extents in
    Hashed { j; fam = t.fams.(j - 1); hashed; z }
  end

let mem answer i =
  match answer with
  | Exact a -> Indexing.Answer.mem a i
  | Hashed { fam; hashed; _ } -> Cbitmap.Posting.mem hashed (Split.hash fam i)

let candidates answer ~n =
  match answer with
  | Exact a -> Indexing.Answer.to_posting ~n a
  | Hashed { fam; hashed; _ } ->
      let acc = ref [] in
      Cbitmap.Posting.iter
        (fun s -> Split.iter_preimage fam ~n s (fun i -> acc := i :: !acc))
        hashed;
      Cbitmap.Posting.of_list !acc

let hashed_bits t =
  let levels =
    Array.fold_left
      (fun acc per_j ->
        Array.fold_left
          (fun acc -> function
            | None -> acc
            | Some tab -> acc + Indexing.Stream_table.size_bits tab)
          acc per_j)
      0 t.hashed_levels
  in
  Array.fold_left
    (fun acc tab -> acc + Indexing.Stream_table.size_bits tab)
    levels t.hashed_leaves

let size_bits t = Static_index.size_bits t.base + hashed_bits t
