(* Plan construction — see the .mli for the model.

   Estimation discipline: per-column cardinalities are exact (probed
   from the A arrays during planning, a charged but tiny cost the
   plans all share); cross-column composition assumes independence.
   The chosen plan carries its estimates so execution can feed the
   estimate-vs-actual error histograms. *)

type col_info = { column : string; ranges : (int * int) list; z : int option }
type decode = Exact | Approx of { epsilon : float }
type action = Exact_inter | Prefilter of { epsilon : float } | Residual
type step = { info : col_info; action : action }

type shape =
  | Const_empty
  | All_rows
  | Count_directory of { column : string; count : int }
  | Scan of { driver : col_info; decode : decode; steps : step list }

type t = {
  shape : shape;
  kind : Ast.kind;
  est_result : float;
  est_verify : float;
  est_ios : float;
  considered : int;
}

(* A column as planning sees it: its plan entry plus the per-range
   cardinalities the directory probes returned ([zs] aligned with
   [info.ranges], [z] their sum). *)
type probed = { info : col_info; zs : int list; z : int }

(* Charged directory probes for every effective column (two A-array
   reads per range), in normalized column order. *)
let probe_columns table (nq : Ast.normal) =
  List.map
    (fun (column, ranges) ->
      let idx = Ridint.Table.col_index table column in
      let zs =
        List.map
          (fun (lo, hi) ->
            let s, e = Secidx.Static_index.entry_bounds idx ~lo ~hi in
            e - s)
          ranges
      in
      let z = List.fold_left ( + ) 0 zs in
      { info = { column; ranges; z = Some z }; zs; z })
    nq.columns

(* ε grid for the prefilter decision: coarse enough to keep the
   enumeration tiny, wide enough that the verification-vs-hashed-bits
   tradeoff has somewhere to move. *)
let eps_grid = [ 0.5; 0.1; 0.01 ]

(* Exact decode of a whole column: one plan per range (batched at
   execution time, but the payload volume estimate is additive). *)
let exact_col_io cost p =
  List.fold_left (fun acc z -> acc +. Cost.exact_ios cost ~z) 0.0 p.zs

type opt = { action : action; io : float }

(* A probed column with its costs, computed once per query: [exact] is
   its exact-decode I/O (as a driver or an [Exact_inter] step), [opts]
   its step options.  Every driver reuses them. *)
type costed = { p : probed; exact : float; opts : opt list }

(* Candidate-set survival ratio of a non-driver step, under
   independence: exact intersection keeps sel; a prefilter keeps sel
   plus an ε false-positive share of the rest; a residual column does
   not reduce candidates before verification at all. *)
let survival ~sel = function
  | Exact_inter -> sel
  | Prefilter { epsilon } -> sel +. (epsilon *. (1.0 -. sel))
  | Residual -> 1.0

let col_options cost table p ~exact =
  let base =
    [ { action = Exact_inter; io = exact }; { action = Residual; io = 0.0 } ]
  in
  match Ridint.Table.col_approx table p.info.column with
  | None -> base
  | Some a ->
      let k = Secidx.Approx_index.k a in
      let prefilters =
        List.map
          (fun epsilon ->
            let io =
              List.fold_left
                (fun acc z ->
                  let l = Secidx.Approx_index.level a ~epsilon ~z in
                  if l > k then acc +. Cost.exact_ios cost ~z
                  else acc +. Cost.prefilter_ios cost ~level:l ~z)
                0.0 p.zs
            in
            { action = Prefilter { epsilon }; io })
          eps_grid
      in
      prefilters @ base

let cost_column cost table p =
  let exact = exact_col_io cost p in
  { p; exact; opts = col_options cost table p ~exact }

(* Full cost of one (driver, per-column action) assignment; [driver_io]
   is the driver's exact-decode I/O. *)
let eval cost ~probe_io ~driver_io driver combo =
  let n = float_of_int cost.Cost.n in
  let io = ref (probe_io +. driver_io) in
  let cand = ref (float_of_int driver.z) in
  let result = ref (float_of_int driver.z) in
  let needs_verify = ref false in
  List.iter
    (fun (p, o) ->
      let sel = float_of_int p.z /. n in
      io := !io +. o.io;
      result := !result *. sel;
      cand := !cand *. survival ~sel o.action;
      match o.action with Exact_inter -> () | _ -> needs_verify := true)
    combo;
  let est_verify = if !needs_verify then !cand else 0.0 in
  io := !io +. Cost.verify_ios cost ~rows:est_verify;
  (!io, !result, est_verify)

let rec product = function
  | [] -> [ [] ]
  | opts :: rest ->
      let tails = product rest in
      List.concat_map (fun o -> List.map (fun t -> o :: t) tails) opts

(* Beyond the exhaustive cap, one pass of coordinate descent: score
   each column's options with every other column held at exact
   intersection, keep the per-column winners as the single combo. *)
let greedy cost ~probe_io ~driver_io driver others =
  let considered = ref 0 in
  let combo =
    List.map
      (fun c ->
        let rest =
          List.filter_map
            (fun q ->
              if q.p.info.column = c.p.info.column then None
              else Some (q.p, { action = Exact_inter; io = q.exact }))
            others
        in
        let best =
          List.fold_left
            (fun acc o ->
              incr considered;
              let io, _, _ =
                eval cost ~probe_io ~driver_io driver ((c.p, o) :: rest)
              in
              match acc with
              | Some (_, best_io) when best_io <= io -> acc
              | _ -> Some (o, io))
            None c.opts
        in
        (c.p, fst (Option.get best)))
      others
  in
  (combo, !considered)

let enumerate cost table probed kind =
  let probe_io =
    Cost.probe_ios cost
      ~ranges:(List.fold_left (fun a p -> a + List.length p.zs) 0 probed)
  in
  let costed = List.map (cost_column cost table) probed in
  let considered = ref 0 in
  let best = ref None in
  List.iter
    (fun d ->
      let driver = d.p and driver_io = d.exact in
      let others =
        List.filter (fun c -> c.p.info.column <> driver.info.column) costed
      in
      let combos =
        let size =
          List.fold_left (fun a c -> a * List.length c.opts) 1 others
        in
        if size <= 512 then (
          let cs = product (List.map (fun c -> c.opts) others) in
          considered := !considered + List.length cs;
          List.map (List.map2 (fun c o -> (c.p, o)) others) cs)
        else
          let combo, c = greedy cost ~probe_io ~driver_io driver others in
          considered := !considered + c + 1;
          [ combo ]
      in
      List.iter
        (fun combo ->
          let io, result, verify =
            eval cost ~probe_io ~driver_io driver combo
          in
          match !best with
          | Some (_, _, _, _, best_io) when best_io <= io -> ()
          | _ -> best := Some (driver, combo, result, verify, io))
        combos)
    costed;
  let driver, combo, est_result, est_verify, est_ios = Option.get !best in
  (* Execution order: candidate-reducing steps first (most selective
     leading), residual checks at verification time. *)
  let filters, residuals =
    List.partition (fun (_, o) -> o.action <> Residual) combo
  in
  let filters = List.sort (fun (a, _) (b, _) -> compare a.z b.z) filters in
  let steps =
    List.map
      (fun (p, o) -> { info = p.info; action = o.action })
      (filters @ residuals)
  in
  {
    shape = Scan { driver = driver.info; decode = Exact; steps };
    kind;
    est_result;
    est_verify;
    est_ios;
    considered = !considered;
  }

(* A plan with nothing left to cost: every estimate [est]. *)
let bare ?(est = 0.0) ~considered kind shape =
  { shape; kind; est_result = est; est_verify = est; est_ios = est; considered }

let choose cost table (nq : Ast.normal) =
  let kind = nq.kind in
  if nq.empty then bare ~considered:1 kind Const_empty
  else
    match (probe_columns table nq, kind) with
    | [], _ ->
        {
          (bare ~considered:1 kind All_rows) with
          est_result = float_of_int (Ridint.Table.rows table);
        }
    | [ p ], Ast.Count ->
        {
          (bare ~considered:1 kind
             (Count_directory { column = p.info.column; count = p.z }))
          with
          est_result = float_of_int p.z;
          est_ios = Cost.probe_ios cost ~ranges:(List.length p.zs);
        }
    | probed, _ -> enumerate cost table probed kind

let fixed ?epsilon (nq : Ast.normal) =
  let plan = bare ~est:Float.nan ~considered:0 nq.kind in
  let col (column, ranges) = { column; ranges; z = None } in
  let decode, action =
    match epsilon with
    | None -> (Exact, Exact_inter)
    | Some epsilon -> (Approx { epsilon }, Prefilter { epsilon })
  in
  match nq.columns with
  | _ when nq.empty -> plan Const_empty
  | [] -> plan All_rows
  | first :: rest ->
      plan
        (Scan
           {
             driver = col first;
             decode;
             steps = List.map (fun c -> { info = col c; action }) rest;
           })

let describe t =
  let col (info : col_info) =
    match info.z with
    | Some z -> Printf.sprintf "%s(z=%d)" info.column z
    | None -> info.column
  in
  match t.shape with
  | Const_empty -> "const-empty"
  | All_rows -> "all-rows"
  | Count_directory { column; count } ->
      Printf.sprintf "count-directory %s(z=%d)" column count
  | Scan { driver; decode; steps } ->
      let driver =
        match decode with
        | Exact -> col driver
        | Approx { epsilon } ->
            Printf.sprintf "%s:approx(%.2f)" (col driver) epsilon
      in
      let step (s : step) =
        match s.action with
        | Exact_inter -> Printf.sprintf "%s:exact" (col s.info)
        | Prefilter { epsilon } ->
            Printf.sprintf "%s:prefilter(%.2f)" (col s.info) epsilon
        | Residual -> Printf.sprintf "%s:residual" (col s.info)
      in
      Printf.sprintf "scan driver=%s steps=[%s]" driver
        (String.concat " " (List.map step steps))
