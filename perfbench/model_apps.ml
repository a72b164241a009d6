(* model-apps: the [model] flow in tainted mode for lulesh, milc and
   minicg.  Per app: one tainted run, a selective 5x5 campaign with 5
   repetitions, and one hypothesis search per measured kernel of the
   selection, 90 kernels in all.  The fit layer dominates; this is where a
   faster search must show, and where a faster taint run must barely show.

   A timed pass fits every [timed_every]-th measured kernel of each app
   (24 of the 90), so that each unit gets enough samples in a run for its
   best time to repeat (see Harness); the full flow runs once, untimed,
   after the timed passes, and gives the quality metrics and checks every
   kernel. *)

module H = Harness
module SSet = Measure.Instrument.SSet

let machine = Mpi_sim.Machine.skylake_cluster
let timed_every = 4

(* One noise seed per app, drawn from the workload seed; every pass
   repeats the same work so pass times are comparable. *)
let design_seed seed (app : Apps_table.t) =
  Hashtbl.hash (seed, "model-apps", app.name) land 0xFFFFFF

type fit = {
  f_app : string;
  f_error : float;
  f_sound : bool;  (** CoV <= 0.1: the paper's soundness filter *)
  f_correct : bool;  (** model parameters = truth_deps ∩ fit params *)
}

type pass_out = { fits : fit list; analyses : Perf_taint.Pipeline.t list }

let selection (t : Perf_taint.Pipeline.t) (app : Apps_table.t) =
  SSet.of_list
    (Perf_taint.Pipeline.relevant_functions t ~model_params:app.fit_params
    @ Ir.Cfg.SSet.elements (Perf_taint.Pipeline.mpi_routines_used t))

(* The parameters taint lets a kernel's model use, derived here from the
   dependency set rather than taken from the constraints under test. *)
let taint_allowed (app : Apps_table.t) t fname =
  let deps = Perf_taint.Modeling.dep_set t fname in
  List.filter (Apps_table.covers app deps) app.fit_params

let run_app ctx ~tr ~every ~search_metrics ~sim_metrics programs
    (app : Apps_table.t) =
  let program = List.assoc app.name programs in
  let t =
    H.timed ctx ("analyze/" ^ app.name) (fun () ->
        H.span ctx tr ~layer:"core" "pipeline.analyze" (fun () ->
            Perf_taint.Pipeline.analyze ~world:app.world program
              ~args:(Apps_table.args app)))
  in
  let selective, runs =
    H.timed ctx ("design/" ^ app.name) (fun () ->
        let selective = selection t app in
        let design =
          {
            Measure.Experiment.grid = app.grid;
            reps = 5;
            mode = Measure.Instrument.Selective selective;
            sigma = 0.02;
            seed = design_seed ctx.H.seed app;
          }
        in
        ( selective,
          H.span ctx tr ~layer:"measure" "experiment.run_design"
            (fun () ->
              Measure.Experiment.run_design ?metrics:sim_metrics app.spec
                machine design) ))
  in
  let config = { app.search with Model.Search.metrics = search_metrics } in
  let fits = ref [] and measured = ref 0 in
  SSet.iter
    (fun kernel ->
      let key = app.name ^ "/" ^ kernel in
      let data =
        H.timed ctx ("data/" ^ key) (fun () ->
            H.span ctx tr ~layer:"measure" "experiment.kernel_dataset"
              (fun () ->
                Measure.Experiment.kernel_dataset runs ~params:app.fit_params
                  ~kernel))
      in
      if data.Model.Dataset.points <> [] then incr measured;
      if data.Model.Dataset.points <> [] && (!measured - 1) mod every = 0
      then begin
        let check (r : Model.Search.result) =
          let used = List.sort compare (Model.Expr.parameters r.model) in
          let allowed = taint_allowed app t kernel in
          H.check ctx
            (List.for_all (fun p -> List.mem p allowed) used)
            "%s/%s: model %s uses parameters outside taint's {%s}" app.name
            kernel (Model.Expr.to_string r.model) (String.concat "," allowed);
          H.check ctx (Float.is_finite r.error) "%s/%s: SMAPE %g is not finite"
            app.name kernel r.error;
          fits :=
            {
              f_app = app.name;
              f_error = r.error;
              f_sound = Model.Dataset.max_cov data <= 0.1;
              f_correct = Some used = Apps_table.truth app kernel;
            }
            :: !fits
        in
        ignore
          (H.op ctx ~tr ~key:("fit/" ^ key) ~check "model-apps.kernel_fit"
             (fun () ->
               let c =
                 H.span ctx tr ~layer:"core" "modeling.constraints_aliased"
                   (fun () ->
                     Perf_taint.Modeling.constraints_aliased t
                       Perf_taint.Modeling.Tainted ~model_params:app.fit_params
                       ~aliases:app.aliases kernel)
               in
               H.span ctx tr ~layer:"model" "search.multi" (fun () ->
                   Model.Search.multi ~config ~constraints:c data)))
      end)
    selective;
  (t, List.rev !fits)

let pass ctx ~tr ~every ~search_metrics ~sim_metrics programs =
  let outs =
    List.map
      (run_app ctx ~tr ~every ~search_metrics ~sim_metrics programs)
      Apps_table.all
  in
  { analyses = List.map fst outs; fits = List.concat_map snd outs }

let run ctx =
  let search_reg = Obs_metrics.create () and sim_reg = Obs_metrics.create () in
  let traced_outs = ref [] in
  let st, setup_s, passes =
    H.run_passes ctx ~setups:16
      ~setup:(fun () -> Apps_table.fresh_analyses (H.setup_part ctx))
      ~adopt:true
      (fun ~tr st _ ->
        let traced = Obs_trace.enabled tr in
        let out =
          pass ctx ~tr ~every:timed_every
            ~search_metrics:(if traced then Some search_reg else None)
            ~sim_metrics:(if traced then Some sim_reg else None)
            (List.map fst st)
        in
        if traced then traced_outs := out :: !traced_outs)
  in
  let fits =
    (pass ctx ~tr:Obs_trace.disabled ~every:1 ~search_metrics:None ~sim_metrics:None
       (List.map fst st))
      .fits
  in
  let cache_miss =
    List.fold_left
      (fun acc (_, (t : Perf_taint.Pipeline.t)) ->
        acc +. H.counter t.snapshot "compile.cache_miss")
      0. st
  in
  let sound = List.filter (fun f -> f.f_sound) fits in
  let correct = List.filter (fun f -> f.f_correct) sound in
  let deps_ratio =
    float_of_int (List.length correct)
    /. float_of_int (max 1 (List.length sound))
  in
  let smape = H.median (List.map (fun f -> f.f_error) fits) in
  let notes =
    [
      Printf.sprintf "kernels fitted by the full flow: %d (%s)" (List.length fits)
        (String.concat ", "
           (List.map
              (fun (a : Apps_table.t) ->
                Printf.sprintf "%s %d" a.name
                  (List.length (List.filter (fun f -> f.f_app = a.name) fits)))
              Apps_table.all));
      H.passes_note passes;
      Printf.sprintf "sound kernels (CoV <= 0.1): %d, tainted model = truth: %d"
        (List.length sound) (List.length correct);
    ]
  in
  let e2e =
    H.timing_metrics ~setup_s passes @ [ H.m "deps_correct_ratio" "ratio" deps_ratio ]
  in
  let layers =
    if not ctx.H.trace then []
    else begin
      let outs = !traced_outs in
      let n = float_of_int (List.length outs) in
      let per_pass f =
        List.fold_left (fun acc o -> acc +. f o) 0. outs /. n
      in
      let analyses f =
        per_pass (fun o ->
            List.fold_left (fun acc t -> acc +. f t) 0. o.analyses)
      in
      let phase name (t : Perf_taint.Pipeline.t) =
        H.gauge t.snapshot ("pipeline.phase." ^ name ^ "_s")
      in
      let taint_c name (t : Perf_taint.Pipeline.t) = H.counter t.snapshot name in
      let steps = analyses (taint_c "interp.steps") in
      let unions = analyses (taint_c "taint.unions") in
      let dedup = analyses (taint_c "taint.dedup_hits") in
      let search = Obs_metrics.snapshot search_reg in
      let sim = Obs_metrics.snapshot sim_reg in
      let fits_per_pass = per_pass (fun o -> float_of_int (List.length o.fits)) in
      let s name = H.counter search name /. n in
      [
        H.m "pipeline.static_s" "s" (analyses (phase "static"));
        H.m "pipeline.taint_run_s" "s" (analyses (phase "taint_run"));
        H.m "pipeline.post_s" "s" (analyses (phase "post"));
        H.m "interp.steps" "count" steps;
        H.m "interp.steps_per_s" "1/s" (steps /. analyses (phase "taint_run"));
        H.m "compile.cache_miss" "count" cache_miss;
        H.m "taint.unions" "count" unions;
        H.m "taint.unions_per_step" "ratio" (unions /. steps);
        H.m "taint.useful_union_ratio" "ratio" ((unions -. dedup) /. unions);
        H.m "taint.labels" "count" (analyses (taint_c "taint.labels"));
        H.m "experiment.run_design_s" "s"
          (H.span_total ctx "experiment.run_design" /. n);
        H.m "sim.runs" "count" (H.counter sim "sim.runs" /. n);
        H.m "sim.core_hours" "h" (H.gauge sim "sim.core_hours" /. n);
        H.m "search.multi_s" "s" (H.span_total ctx "search.multi" /. n);
        H.m "search.fits" "count" fits_per_pass;
        H.m "search.evaluated" "count" (s "search.evaluated");
        H.m "search.evaluated_per_fit" "count"
          (s "search.evaluated" /. fits_per_pass);
        H.m "search.candidates.single_term" "count"
          (s "search.candidates.single_term");
        H.m "search.candidates.two_term" "count"
          (s "search.candidates.two_term");
        H.m "search.candidates.multi_param" "count"
          (s "search.candidates.multi_param");
        H.m "search.rejected.unfit" "count" (s "search.rejected.unfit");
        H.m "search.rejected.threshold" "count" (s "search.rejected.threshold");
        H.m "search.smape_median_pct" "%" smape;
        H.m "modeling.constraints_s" "s"
          (H.span_total ctx "modeling.constraints_aliased" /. n);
      ]
      @ H.trace_metrics ctx passes
    end
  in
  (e2e, layers, notes)
