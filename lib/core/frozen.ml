type key = int * int

type t = {
  wtree : Wbb.t;
  lo_keys : key array; (* by node id, as [wtree.nodes] *)
  hi_keys : key array;
}

let tree t = t.wtree

(* Every node starts at a leaf start, so a node boundary's key is a
   leaf's first (character, position) entry — its character [clo], its
   first position from the leaves' pass over [x] — or
   [(sigma_total, 0)] past the last leaf. *)
let make (wtree : Wbb.t) x ~sigma_total =
  let leaves = wtree.Wbb.leaves in
  let leaf_key = Array.make (Array.length leaves + 1) (sigma_total, 0) in
  Array.iteri
    (fun l p -> leaf_key.(l) <- (leaves.(l).Wbb.clo, Cbitmap.Posting.get p 0))
    (Wbb.level_positions wtree x leaves);
  (* The leftmost path must own keys below the first entry. *)
  leaf_key.(0) <- (0, 0);
  let rec edge pick (v : Wbb.node) =
    if Wbb.is_leaf v then v.Wbb.leaf_index else edge pick (pick v.Wbb.children)
  in
  let first = edge (fun ch -> ch.(0))
  and last = edge (fun ch -> ch.(Array.length ch - 1)) in
  {
    wtree;
    lo_keys = Array.map (fun v -> leaf_key.(first v)) wtree.Wbb.nodes;
    hi_keys = Array.map (fun v -> leaf_key.(last v + 1)) wtree.Wbb.nodes;
  }

let lo_key t (v : Wbb.node) = t.lo_keys.(v.Wbb.id)
let hi_key t (v : Wbb.node) = t.hi_keys.(v.Wbb.id)

let contains t v k = compare (lo_key t v) k <= 0 && compare k (hi_key t v) < 0

let route_path t k =
  let rec go (v : Wbb.node) acc =
    let acc = v :: acc in
    if Wbb.is_leaf v then List.rev acc
    else begin
      (* The children tile v's interval, so exactly one contains k. *)
      let child = ref v.Wbb.children.(0) in
      Array.iter
        (fun ch -> if compare (lo_key t ch) k <= 0 then child := ch)
        v.Wbb.children;
      assert (contains t !child k);
      go !child acc
    end
  in
  if not (contains t t.wtree.Wbb.root k) then
    invalid_arg "Frozen.route_path: key outside root interval";
  go t.wtree.Wbb.root []

let decompose t ~klo ~khi =
  let canon = ref [] and partial = ref [] and spine = ref [] in
  let rec go (v : Wbb.node) =
    let lo = lo_key t v and hi = hi_key t v in
    if compare hi klo <= 0 || compare lo khi >= 0 then ()
    else if compare klo lo <= 0 && compare hi khi <= 0 then
      canon := v :: !canon
    else if Wbb.is_leaf v then partial := v :: !partial
    else begin
      spine := v :: !spine;
      Array.iter go v.Wbb.children
    end
  in
  go t.wtree.Wbb.root;
  (List.rev !canon, List.rev !partial, List.rev !spine)

let cover t ~mat ~lo ~hi =
  let canon, partial, spine = decompose t ~klo:(lo, 0) ~khi:(hi + 1, 0) in
  let stored (v : Wbb.node) =
    Wbb.is_leaf v || (v.Wbb.level < Array.length mat && mat.(v.Wbb.level))
  in
  ( List.concat_map (fun v -> Wbb.frontier t.wtree v ~stored) canon,
    partial,
    spine @ canon )

let key ~levels (v : Wbb.node) =
  if Wbb.is_leaf v then Some (-1, v.Wbb.leaf_index)
  else if v.Wbb.level < Array.length levels && Option.is_some levels.(v.Wbb.level)
  then Some (v.Wbb.level, v.Wbb.level_index)
  else None
