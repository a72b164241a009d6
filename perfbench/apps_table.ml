(* The benchmark's own per-app table: everything a workload needs to drive
   one application through the pipeline.  It reads the app modules'
   constants directly and never goes through the CLI's target resolution
   or the serve registry, so those surfaces can change without touching
   the benchmark. *)

type t = {
  name : string;
  program : Ir.Types.program;
  taint_args : Ir.Types.value list;  (** entry arguments, in order *)
  world : Mpi_sim.Runtime.world;
  spec : Measure.Spec.app;
  grid : (string * float list) list;  (** the 5x5 campaign grid *)
  fit_params : string list;  (** model parameters of the fits *)
  aliases : (string * string list) list;
  search : Model.Search.config;
}

let lulesh =
  {
    name = "lulesh";
    program = Apps.Lulesh.program;
    taint_args = Apps.Lulesh.taint_args;
    world = Apps.Lulesh.taint_world;
    spec = Apps.Lulesh_spec.app;
    grid =
      [ ("p", Apps.Lulesh_spec.p_values);
        ("size", Apps.Lulesh_spec.size_values); ("r", [ 8. ]) ];
    fit_params = [ "p"; "size" ];
    aliases = [];
    search = Model.Search.default_config;
  }

(* MILC models in (p, size) while the program's parameters are the four
   lattice extents; its per-rank work shrinks with p, so the search needs
   the negative exponents of the extended menu. *)
let milc =
  {
    name = "milc";
    program = Apps.Milc.program;
    taint_args = Apps.Milc.taint_args;
    world = Apps.Milc.taint_world;
    spec = Apps.Milc_spec.app;
    grid =
      [ ("p", Apps.Milc_spec.p_values); ("size", Apps.Milc_spec.size_values);
        ("r", [ 8. ]) ];
    fit_params = [ "p"; "size" ];
    aliases = [ ("size", [ "nx"; "ny"; "nz"; "nt" ]) ];
    search = Model.Search.extended_config;
  }

let minicg =
  {
    name = "minicg";
    program = Apps.Minicg.program;
    taint_args = Apps.Minicg.taint_args;
    world = Apps.Minicg.taint_world;
    spec = Apps.Minicg_spec.app;
    grid =
      [ ("p", Apps.Minicg_spec.p_values); ("n", Apps.Minicg_spec.n_values);
        ("r", [ 8. ]) ];
    fit_params = [ "p"; "n" ];
    aliases = [];
    search = Model.Search.extended_config;
  }

let all = [ lulesh; milc; minicg ]

let entry_params app =
  let p = app.program in
  (Ir.Types.find_func p p.Ir.Types.entry).Ir.Types.fparams

(** The app's taint arguments with some entry parameters overridden. *)
let args ?(set = []) app =
  List.map2
    (fun name v ->
      match List.assoc_opt name set with
      | Some x -> Ir.Types.VInt x
      | None -> v)
    (entry_params app) app.taint_args

(** A physically fresh copy of the program.  The compiled tier caches
    lowered code by physical identity, so analysing a copy pays the
    first lowering again, as a new process would. *)
let fresh_program app = { app.program with Ir.Types.entry = app.program.entry }

(** The set-up of the workloads that analyse: a fresh copy of each program,
    analysed once on its default input, which pays the first lowering.
    [part] runs each app's share (it times it).  Returns the programs by
    app name, with their analyses. *)
let fresh_analyses part =
  List.map
    (fun app ->
      part app.name (fun () ->
          let program = fresh_program app in
          let t =
            Perf_taint.Pipeline.analyze ~world:app.world program
              ~args:(args app)
          in
          ((app.name, program), t)))
    all

(** Does the taint dependency set [deps] cover model parameter [m]
    (directly or through an alias)? *)
let covers app deps m =
  let names =
    m :: Option.value ~default:[] (List.assoc_opt m app.aliases)
  in
  List.exists (fun q -> Ir.Cfg.SSet.mem q deps) names

(** Ground truth of one kernel restricted to the fit parameters, sorted;
    [None] for a function the spec does not model. *)
let truth app fname =
  List.find_opt
    (fun (k : Measure.Spec.kernel) -> k.Measure.Spec.kname = fname)
    app.spec.Measure.Spec.kernels
  |> Option.map (fun (k : Measure.Spec.kernel) ->
         List.filter (fun p -> List.mem p app.fit_params) k.truth_deps
         |> List.sort compare)

(** Ground truth of the total runtime: every fit parameter some kernel
    depends on. *)
let total_truth app =
  List.filter
    (fun p ->
      List.exists
        (fun (k : Measure.Spec.kernel) -> List.mem p k.Measure.Spec.truth_deps)
        app.spec.Measure.Spec.kernels)
    app.fit_params
  |> List.sort compare
