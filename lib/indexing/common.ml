(* A counting sort: one pass counts, one places each position. *)
let positions_by_char ~sigma x =
  let counts = Array.make sigma 0 in
  Array.iter
    (fun c ->
      if c < 0 || c >= sigma then invalid_arg "Common.positions_by_char";
      counts.(c) <- counts.(c) + 1)
    x;
  let out = Array.map (fun k -> Array.make k 0) counts in
  Array.fill counts 0 sigma 0;
  Array.iteri
    (fun i c ->
      out.(c).(counts.(c)) <- i;
      counts.(c) <- counts.(c) + 1)
    x;
  Array.map Cbitmap.Posting.adopt out

let bits_for v = max 1 (Bitio.Codes.ceil_log2 (max 2 v))

(* The one range rule shared by every builder (PR 3 satellite): a
   query range is clamped to the alphabet [0, sigma - 1]; if the
   intersection is empty the query is answered with the empty set.
   Callers therefore never raise on out-of-range bounds — all
   thirteen builders agree on the same total query function. *)
let clamp_range ~sigma ~lo ~hi =
  (* One instant here gives every builder its "clamp" phase marker. *)
  if !Obs.Trace.on then
    Obs.Trace.instant ~cat:"phase"
      ~attrs:
        [
          ("lo", Obs.Trace.Int lo);
          ("hi", Obs.Trace.Int hi);
          ("sigma", Obs.Trace.Int sigma);
        ]
      "clamp";
  let lo = max 0 lo and hi = min (sigma - 1) hi in
  if lo > hi then None else Some (lo, hi)

let prefix_counts ~sigma x =
  let a = Array.make (sigma + 1) 0 in
  Array.iter (fun c -> a.(c + 1) <- a.(c + 1) + 1) x;
  for i = 1 to sigma do
    a.(i) <- a.(i) + a.(i - 1)
  done;
  a
