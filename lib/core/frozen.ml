type key = int * int

type t = {
  wtree : Wbb.t;
  lo_keys : key array; (* by node id *)
  hi_keys : key array;
}

let tree t = t.wtree

let make (wtree : Wbb.t) ~sigma_total =
  let n = wtree.Wbb.n in
  let key_of_entry i =
    if i >= n then (sigma_total, 0)
    else (wtree.Wbb.entry_char.(i), wtree.Wbb.entry_pos.(i))
  in
  let nnodes = Array.length wtree.Wbb.nodes in
  let lo_keys = Array.make nnodes (0, 0) in
  let hi_keys = Array.make nnodes (0, 0) in
  Array.iter
    (fun (v : Wbb.node) ->
      lo_keys.(v.Wbb.id) <- key_of_entry v.Wbb.s;
      hi_keys.(v.Wbb.id) <- key_of_entry v.Wbb.e)
    wtree.Wbb.nodes;
  (* The leftmost path must own keys below the first entry. *)
  let rec extend_left (v : Wbb.node) =
    lo_keys.(v.Wbb.id) <- (0, 0);
    if not (Wbb.is_leaf v) then extend_left v.Wbb.children.(0)
  in
  extend_left wtree.Wbb.root;
  { wtree; lo_keys; hi_keys }

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
