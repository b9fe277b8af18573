type node = {
  mutable id : int;
  level : int;
  s : int;
  e : int;
  clo : int;
  chi : int;
  children : node array;
  mutable leaf_index : int;
  mutable level_index : int;
}

type t = {
  root : node;
  height : int;
  c : int;
  n : int;
  sigma : int;
  nodes : node array;
  leaves : node array;
  internal_by_level : node array array;
  char_start : int array;
}

let weight v = v.e - v.s
let is_leaf v = Array.length v.children = 0

let build ~c ~sigma x =
  if c < 2 then invalid_arg "Wbb.build: c >= 2";
  let n = Array.length x in
  if n = 0 then invalid_arg "Wbb.build: empty string";
  (* Entries: (char asc, position asc); entry [i] holds the last
     character [a] with [char_start.(a) <= i]. *)
  let char_start = Indexing.Common.prefix_counts ~sigma x in
  let char_of_entry i =
    let lo = ref 0 and hi = ref (sigma - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if char_start.(mid) <= i then lo := mid else hi := mid - 1
    done;
    !lo
  in
  (* Recursive balanced c-ary split, pruned at single-character
     nodes; [all] collects them in post-order, so its leaves run right
     to left. *)
  let all = ref [] in
  let rec make level s e =
    let clo = char_of_entry s and chi = char_of_entry (e - 1) in
    let children =
      if clo = chi then [||]
      else begin
        let size = e - s in
        let parts = min c size in
        Array.init parts (fun i ->
            let cs = s + (size * i / parts) in
            let ce = s + (size * (i + 1) / parts) in
            make (level + 1) cs ce)
      end
    in
    let v =
      { id = -1; level; s; e; clo; chi; children; leaf_index = -1;
        level_index = -1 }
    in
    all := v :: !all;
    v
  in
  let root = make 1 0 n in
  let nodes = Array.of_list !all in
  (* Breadth-first order: (level, entry range). *)
  Array.sort
    (fun a b ->
      if a.level <> b.level then compare a.level b.level else compare a.s b.s)
    nodes;
  Array.iteri (fun i v -> v.id <- i) nodes;
  let height = Array.fold_left (fun acc v -> max acc v.level) 1 nodes in
  let leaves = Array.of_list (List.rev (List.filter is_leaf !all)) in
  Array.iteri (fun i v -> v.leaf_index <- i) leaves;
  (* [nodes] is sorted by entry range within a level. *)
  let internal_by_level =
    Array.init height (fun l ->
        let arr =
          Array.of_list
            (List.filter
               (fun v -> v.level = l + 1 && not (is_leaf v))
               (Array.to_list nodes))
        in
        Array.iteri (fun i v -> v.level_index <- i) arr;
        arr)
  in
  {
    root;
    height;
    c;
    n;
    sigma;
    nodes;
    leaves;
    internal_by_level;
    char_start;
  }

let decompose t ~s ~e =
  let canon = ref [] and spine = ref [] in
  let rec go v =
    if v.e <= s || v.s >= e then ()
    else if s <= v.s && v.e <= e then canon := v :: !canon
    else begin
      spine := v :: !spine;
      if is_leaf v then
        invalid_arg "Wbb.decompose: query range not aligned to leaves";
      Array.iter go v.children
    end
  in
  go t.root;
  (List.rev !canon, List.rev !spine)

let frontier _t v ~stored =
  let acc = ref [] in
  let rec go u =
    if stored u then acc := u :: !acc
    else begin
      if is_leaf u then invalid_arg "Wbb.frontier: leaf not stored";
      Array.iter go u.children
    end
  in
  go v;
  List.rev !acc

let node_count t = Array.length t.nodes

let doubling_levels height =
  let rec go l acc = if l > height then acc else go (2 * l) (l :: acc) in
  List.rev (go 1 [])

(* The positions of [nodes] (one level's nodes, left to right, so
   their entry ranges are disjoint and increasing) in one pass over the
   first [n] characters of [x], in position order.  A position's entry
   is its character's cursor: [char_start.(ch)] plus the occurrences
   of [ch] seen so far.  Each character keeps a pointer into [nodes],
   started by binary search at the first node ending past
   [char_start.(ch)] and advanced while the node ends at or before the
   entry; a node that covers the entry gets the position appended, so
   every array fills in increasing order.  O(n + σ·lg k) time for [k]
   nodes and O(σ + k) words of state. *)
let level_positions t x nodes =
  if Array.length x < t.n then invalid_arg "Wbb.level_positions: string length";
  let k = Array.length nodes in
  let starts = Array.map (fun v -> v.s) nodes
  and ends = Array.map (fun v -> v.e) nodes in
  let out = Array.map (fun v -> Array.make (weight v) 0) nodes in
  let fill = Array.make k 0 in
  let cursor = Array.sub t.char_start 0 t.sigma in
  let ptr =
    Array.map
      (fun first ->
        let lo = ref 0 and hi = ref k in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if ends.(mid) <= first then lo := mid + 1 else hi := mid
        done;
        !lo)
      cursor
  in
  for pos = 0 to t.n - 1 do
    let ch = Array.unsafe_get x pos in
    let entry = cursor.(ch) in
    Array.unsafe_set cursor ch (entry + 1);
    let p = ref (Array.unsafe_get ptr ch) in
    while !p < k && Array.unsafe_get ends !p <= entry do
      incr p
    done;
    Array.unsafe_set ptr ch !p;
    if !p < k && Array.unsafe_get starts !p <= entry then begin
      let f = Array.unsafe_get fill !p in
      (Array.unsafe_get out !p).(f) <- pos;
      Array.unsafe_set fill !p (f + 1)
    end
  done;
  Array.map Cbitmap.Posting.adopt out

let store_levels t x ~levels store =
  if Array.length x <> t.n then invalid_arg "Wbb.store_levels: string length";
  let mat = Array.make (t.height + 1) false in
  List.iter (fun l -> mat.(l) <- true) levels;
  let level_store =
    Array.init (t.height + 1) (fun l ->
        if l >= 1 && mat.(l) && Array.length t.internal_by_level.(l - 1) > 0
        then Some (store (level_positions t x t.internal_by_level.(l - 1)))
        else None)
  in
  let leaf_store = store (level_positions t x t.leaves) in
  (mat, level_store, leaf_store)

let storages t level_store leaf_store =
  (leaf_store, t.leaves)
  :: List.filter_map
       (fun l ->
         Option.map
           (fun st -> (st, t.internal_by_level.(l - 1)))
           level_store.(l))
       (List.init t.height (fun l -> l + 1))
