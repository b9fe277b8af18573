(* Plan execution: one body for cost-based and fixed plans. *)

module Posting = Cbitmap.Posting
module Table = Ridint.Table
module Metrics = Obs.Metrics

let m_queries = Metrics.counter "planner_queries_total"
let m_considered = Metrics.counter "planner_plans_considered_total"
let m_count_fast = Metrics.counter "planner_count_fastpath_total"
let m_exact_steps = Metrics.counter "planner_exact_steps_total"
let m_prefilter_steps = Metrics.counter "planner_prefilter_steps_total"
let m_residual_steps = Metrics.counter "planner_residual_steps_total"
let m_verified = Metrics.counter "planner_verified_rows_total"
let m_fp_rejected = Metrics.counter "planner_fp_rejected_total"
let h_io_err = Metrics.error_histogram "planner_io_estimate_error"
let h_result_err = Metrics.error_histogram "planner_result_estimate_error"
let h_verify_err = Metrics.error_histogram "planner_verify_estimate_error"

type outcome = {
  rows : Posting.t option;
  count : int;
  plan : Plan.t;
  checked : int;
  fp_rejected : int;
  stats : Iosim.Stats.t;
}

(* Exact decode of one column's disjoint ranges: one warm request on
   the column's instance (the query is already cold), which runs a
   single range directly and several as one batch. *)
let exact_posting table n (info : Plan.col_info) =
  fst
    (Indexing.Instance.run
       (Table.col_instance table info.column)
       ~pool:`Warm (Array.of_list info.ranges))
  |> Array.to_list
  |> List.map (Indexing.Answer.to_posting ~n)
  |> Posting.union_many

let approx_index table (info : Plan.col_info) =
  match Table.col_approx table info.column with
  | None ->
      invalid_arg ("Exec: no approximate index on column " ^ info.column)
  | Some a -> a

(* The column's §3 approximate answers at [epsilon], one per range.
   Reading the hashed sets is the only device I/O; candidate preimages
   are in memory. *)
let approx_answers table ~epsilon (info : Plan.col_info) =
  let a = approx_index table info in
  List.map
    (fun (lo, hi) -> Secidx.Approx_index.query a ~epsilon ~lo ~hi)
    info.ranges

(* Keep candidates that are hashed-members of any of the column's
   per-range approximate answers, probed range by range in order;
   false positives survive to verification. *)
let prefilter_posting table ~epsilon info cand =
  let a = approx_index table info in
  List.map
    (fun (lo, hi) -> Secidx.Approx_index.probe a ~epsilon ~lo ~hi cand)
    info.ranges
  |> Posting.union_many

(* Verification: read each surviving candidate's cells (charged when
   the rows are stored) and keep rows passing every listed column's
   ranges, in list order.  Short-circuits across columns per row. *)
let verify table checks cand =
  let keep =
    Posting.filter
      (fun row ->
        List.for_all
          (fun (info : Plan.col_info) ->
            Table.check_cell_ranges table ~column:info.column ~row info.ranges)
          checks)
      cand
  in
  let checked = Posting.cardinal cand in
  (keep, checked, checked - Posting.cardinal keep)

let run_scan table n driver decode steps =
  let seed =
    match decode with
    | Plan.Exact -> (exact_posting table n driver, [])
    | Plan.Approx { epsilon } ->
        let cand =
          approx_answers table ~epsilon driver
          |> List.map (fun a -> Secidx.Approx_index.candidates a ~n)
          |> Posting.union_many
        in
        (cand, [ driver ])
  in
  let cand, to_verify =
    List.fold_left
      (fun (cand, to_verify) (s : Plan.step) ->
        match s.action with
        | Plan.Exact_inter ->
            (Posting.inter cand (exact_posting table n s.info), to_verify)
        | Plan.Prefilter { epsilon } ->
            (prefilter_posting table ~epsilon s.info cand, s.info :: to_verify)
        | Plan.Residual -> (cand, s.info :: to_verify))
      seed steps
  in
  match List.rev to_verify with
  | [] -> (cand, 0, 0)
  | checks -> verify table checks cand

(* Plan [query] with [make_plan] and run it cold: pool cleared and
   counters reset before planning, so its probes are charged too. *)
let run_with table (query : Ast.query) make_plan =
  let n = Table.rows table in
  let device = Table.device table in
  Iosim.Device.clear_pool device;
  Iosim.Device.reset_stats device;
  let plan =
    make_plan (Ast.normalize ~sigma_of:(Table.col_sigma table) query)
  in
  let rows, count, checked, fp_rejected =
    match plan.Plan.shape with
    | Plan.Const_empty -> (Posting.empty, 0, 0, 0)
    | Plan.All_rows ->
        (* No effective predicate: for Rows the full identity posting
           (no device I/O); for Count just n. *)
        let p =
          match query.kind with
          | Ast.Count -> Posting.empty
          | Ast.Rows -> Posting.of_sorted_array (Array.init n Fun.id)
        in
        (p, n, 0, 0)
    | Plan.Count_directory { count; _ } ->
        (* The planning-time A-array probes already answered this:
           disjoint non-adjacent ranges make per-range cardinalities
           additive.  Zero payload bits decoded. *)
        (Posting.empty, count, 0, 0)
    | Plan.Scan { driver; decode; steps } ->
        let p, checked, fp = run_scan table n driver decode steps in
        (p, Posting.cardinal p, checked, fp)
  in
  {
    rows = (match query.kind with Ast.Rows -> Some rows | Ast.Count -> None);
    count;
    plan;
    checked;
    fp_rejected;
    stats = Iosim.Stats.snapshot (Iosim.Device.stats device);
  }

let run ?cost table query =
  let cost = match cost with Some c -> c | None -> Cost.of_table table in
  Metrics.incr m_queries;
  let out = run_with table query (Plan.choose cost table) in
  let plan = out.plan in
  Metrics.incr ~by:plan.considered m_considered;
  (match plan.shape with
  | Plan.Count_directory _ -> Metrics.incr m_count_fast
  | Plan.Scan { steps; _ } ->
      List.iter
        (fun (s : Plan.step) ->
          Metrics.incr
            (match s.action with
            | Plan.Exact_inter -> m_exact_steps
            | Plan.Prefilter _ -> m_prefilter_steps
            | Plan.Residual -> m_residual_steps))
        steps
  | Plan.Const_empty | Plan.All_rows -> ());
  Metrics.incr ~by:out.checked m_verified;
  Metrics.incr ~by:out.fp_rejected m_fp_rejected;
  Metrics.observe_ratio h_io_err ~est:plan.est_ios
    ~actual:(float_of_int (Iosim.Stats.ios out.stats));
  Metrics.observe_ratio h_result_err ~est:plan.est_result
    ~actual:(float_of_int out.count);
  if plan.est_verify > 0.0 || out.checked > 0 then
    Metrics.observe_ratio h_verify_err ~est:plan.est_verify
      ~actual:(float_of_int out.checked);
  out

let run_fixed ?epsilon table query = run_with table query (Plan.fixed ?epsilon)
