type level = {
  rs : Cbitmap.Rank_select.t; (* in-memory mirror for the arithmetic *)
  region : Iosim.Device.region; (* the same bits on the device *)
  starts : int array; (* node p at this level covers [starts.(p), starts.(p+1)) *)
}

type t = {
  device : Iosim.Device.t;
  n : int;
  sigma : int;
  sigma2 : int;
  nlevels : int; (* lg sigma2 *)
  levels : level array;
}

let build device ~sigma x =
  let n = Array.length x in
  let rec pow2 v = if v >= max 2 sigma then v else pow2 (2 * v) in
  let sigma2 = pow2 2 in
  let nlevels = Bitio.Codes.floor_log2 sigma2 in
  Array.iter
    (fun c -> if c < 0 || c >= sigma then invalid_arg "Wavelet.build") x;
  (* current: the string permuted into level order (stable partition by
     char prefix). *)
  let current = ref (Array.copy x) in
  let levels =
    Array.init nlevels (fun k ->
        let shift = nlevels - 1 - k in
        (* Node starts: count characters per k-bit prefix. *)
        let nnodes = 1 lsl k in
        let starts = Array.make (nnodes + 1) 0 in
        Array.iter
          (fun c ->
            let p = c lsr (shift + 1) in
            starts.(p + 1) <- starts.(p + 1) + 1)
          !current;
        for p = 1 to nnodes do
          starts.(p) <- starts.(p) + starts.(p - 1)
        done;
        (* Level bits (MSB number shift of each character, in current
           order) and the stable partition for the next level. *)
        let buf = Bitio.Bitbuf.create ~capacity:n () in
        Array.iter
          (fun c -> Bitio.Bitbuf.write_bit buf ((c lsr shift) land 1 = 1))
          !current;
        let next = Array.make n 0 in
        let cursor = Array.make (2 * nnodes) 0 in
        (* next-level node q = 2p + bit starts at: *)
        let next_starts = Array.make ((2 * nnodes) + 1) 0 in
        Array.iter
          (fun c ->
            let q = c lsr shift in
            next_starts.(q + 1) <- next_starts.(q + 1) + 1)
          !current;
        for q = 1 to 2 * nnodes do
          next_starts.(q) <- next_starts.(q) + next_starts.(q - 1)
        done;
        Array.blit next_starts 0 cursor 0 (2 * nnodes);
        Array.iter
          (fun c ->
            let q = c lsr shift in
            next.(cursor.(q)) <- c;
            cursor.(q) <- cursor.(q) + 1)
          !current;
        current := next;
        {
          rs = Cbitmap.Rank_select.of_bitbuf buf;
          region =
            Iosim.Device.with_component device "rank_select" (fun () ->
                Iosim.Device.store ~align_block:true device buf);
          starts;
        })
  in
  { device; n; sigma; sigma2; nlevels; levels }

let levels t = t.nlevels

(* Every inspected bit is charged as a device read at its true offset
   (the in-memory mirror only avoids re-implementing rank). *)
let touch_bit t k i =
  if t.n > 0 then
    ignore
      (Iosim.Device.read_bits t.device
         ~pos:(t.levels.(k).region.Iosim.Device.off + min i (t.n - 1))
         ~width:1)

let access t i =
  if i < 0 || i >= t.n then invalid_arg "Wavelet.access";
  let rec go k p i =
    if k >= t.nlevels then p
    else begin
      let lv = t.levels.(k) in
      touch_bit t k i;
      let bit = Cbitmap.Rank_select.get lv.rs i in
      let node_start = lv.starts.(p) in
      (* Rank within the node. *)
      let ones_before =
        Cbitmap.Rank_select.rank1 lv.rs i - Cbitmap.Rank_select.rank1 lv.rs node_start
      in
      let zeros_before = i - node_start - ones_before in
      let q = (2 * p) + if bit then 1 else 0 in
      let child_start =
        if k + 1 < t.nlevels then t.levels.(k + 1).starts.(q)
        else
          (* Conceptual leaf level: characters in order; start = count
             of smaller characters, which equals the running start. *)
          0
      in
      let offset = if bit then ones_before else zeros_before in
      go (k + 1) q (child_start + offset)
    end
  in
  go 0 0 i

(* Map an index at level k (global order of that level) back to the
   original string position: one select per level, each a random
   device touch. *)
let map_up t k i =
  let idx = ref i in
  for level = k - 1 downto 0 do
    let lv = t.levels.(level) in
    (* At level `level`, the element came from node p = its prefix;
       recover via the child it sits in.  We know its level-(k) node
       implicitly through starts; walking up only needs the bit. *)
    (* Find which node of level+1 the index is in. *)
    let child_starts =
      if level + 1 < t.nlevels then t.levels.(level + 1).starts
      else [||]
    in
    let q =
      if Array.length child_starts = 0 then 0
      else begin
        (* binary search: last q with starts.(q) <= idx *)
        let lo = ref 0 and hi = ref (Array.length child_starts - 2) in
        while !lo < !hi do
          let mid = (!lo + !hi + 1) / 2 in
          if child_starts.(mid) <= !idx then lo := mid else hi := mid - 1
        done;
        !lo
      end
    in
    let bit = q land 1 = 1 in
    let p = q lsr 1 in
    let child_start = if Array.length child_starts = 0 then 0 else child_starts.(q) in
    let j = !idx - child_start in
    let node_start = lv.starts.(p) in
    let parent_idx =
      if bit then
        Cbitmap.Rank_select.select1 lv.rs
          (Cbitmap.Rank_select.rank1 lv.rs node_start + j)
      else
        Cbitmap.Rank_select.select0 lv.rs
          (Cbitmap.Rank_select.rank0 lv.rs node_start + j)
    in
    touch_bit t level parent_idx;
    idx := parent_idx
  done;
  !idx

(* Dyadic cover of [lo..hi] as (level, node) pairs over sigma2 leaves;
   level = nlevels means a single character. *)
let cover t ~lo ~hi =
  let rec go lo acc =
    if lo > hi then List.rev acc
    else begin
      (* Smallest k (widest aligned block) fitting at lo. *)
      let k = ref t.nlevels in
      for cand = t.nlevels downto 0 do
        let width = 1 lsl (t.nlevels - cand) in
        if lo mod width = 0 && lo + width - 1 <= hi then k := cand
      done;
      let width = 1 lsl (t.nlevels - !k) in
      go (lo + width) ((!k, lo / width) :: acc)
    end
  in
  go lo []

(* Segment of an internal node in its level's global order. *)
let node_segment t k p =
  (t.levels.(k).starts.(p), t.levels.(k).starts.(p + 1))

let query_clamped t ~lo ~hi =
  let pieces = cover t ~lo ~hi in
  let acc = ref [] in
  Obs.Metrics.(in_phase rank_select) (fun () ->
  List.iter
    (fun (k, p) ->
      if k < t.nlevels then begin
        let a, b = node_segment t k p in
        for i = a to b - 1 do
          acc := map_up t k i :: !acc
        done
      end
      else begin
        (* Single character: its elements are a contiguous run of the
           (conceptual) leaf level; walk up from level nlevels. *)
        let lv = t.levels.(t.nlevels - 1) in
        let parent = p lsr 1 in
        let a = lv.starts.(parent) and b = lv.starts.(parent + 1) in
        let count =
          let ones =
            Cbitmap.Rank_select.rank1 lv.rs b - Cbitmap.Rank_select.rank1 lv.rs a
          in
          if p land 1 = 1 then ones else b - a - ones
        in
        for j = 0 to count - 1 do
          (* Index at the conceptual leaf level, expressed directly via
             select in the last real level. *)
          let idx =
            if p land 1 = 1 then
              Cbitmap.Rank_select.select1 lv.rs
                (Cbitmap.Rank_select.rank1 lv.rs a + j)
            else
              Cbitmap.Rank_select.select0 lv.rs
                (Cbitmap.Rank_select.rank0 lv.rs a + j)
          in
          touch_bit t (t.nlevels - 1) idx;
          acc := map_up t (t.nlevels - 1) idx :: !acc
        done
      end)
    pieces);
  Indexing.Answer.Direct (Cbitmap.Posting.of_list !acc)

let query t ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma:t.sigma ~lo ~hi with
  | None -> Indexing.Answer.Direct Cbitmap.Posting.empty
  | Some (lo, hi) -> query_clamped t ~lo ~hi

let size_bits t =
  Array.fold_left
    (fun sum lv -> sum + lv.region.Iosim.Device.len)
    0 t.levels

let instance device ~sigma x =
  let t = build device ~sigma x in
  {
    Indexing.Instance.name = "wavelet-tree";
    device;
    n = t.n;
    sigma;
    size_bits = size_bits t;
    query = (fun ~lo ~hi -> query t ~lo ~hi);
    (* Answers are computed from the in-memory rank/select mirrors
       (device touches only account the I/O cost), so device faults
       cannot corrupt them: nothing to scrub. *)
    batch = None;
    integrity = None;
  }
