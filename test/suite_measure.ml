(** Tests of the measurement substrate: machine model, noise determinism,
    instrumentation modes, the run simulator, and experiment designs. *)

module Sim = Measure.Simulator
module Noise_alias = Measure.Noise
module Instr = Measure.Instrument
module Exp = Measure.Experiment
module Spec = Measure.Spec
module Machine = Mpi_sim.Machine

let machine = Machine.skylake_cluster

let tiny_app =
  let kernel name ~tiny calls per_call =
    Spec.kernel ~kind:Spec.Compute ~tiny
      ~calls:(fun _ -> calls)
      ~base_time:(fun ps _ ->
        calls *. per_call *. Spec.param ps "n")
      ~truth_deps:[ "n" ] name
  in
  {
    Spec.aname = "tiny";
    kernels = [ kernel "hot" ~tiny:false 10. 1e-4; kernel "helper" ~tiny:true 1e6 1e-9 ];
    model_params = [ "n" ];
  }

let params = [ ("n", 8.); ("p", 4.) ]

(* -- machine model ----------------------------------------------------------- *)

let test_contention_monotone () =
  let prev = ref 0. in
  List.iter
    (fun r ->
      let s = Machine.contention_slowdown machine ~ranks_per_node:r in
      Alcotest.(check bool)
        (Printf.sprintf "slowdown at r=%d >= previous" r)
        true (s >= !prev);
      prev := s)
    [ 1; 2; 4; 8; 12; 16; 18 ]

let test_contention_unit_at_one () =
  Alcotest.(check (float 1e-9)) "no contention alone" 1.
    (Machine.contention_slowdown machine ~ranks_per_node:1)

let test_cores_per_node () =
  Alcotest.(check int) "36 cores" 36 (Machine.cores_per_node machine)

(* -- noise ---------------------------------------------------------------------- *)

let test_noise_deterministic () =
  let sample () =
    let rng = Noise_alias.create ~seed:1 ~salt:("a", 2) in
    Noise_alias.perturb rng ~sigma:0.05 1.0
  in
  Alcotest.(check (float 1e-12)) "same seed, same draw" (sample ()) (sample ())

let test_noise_salt_differs () =
  let s1 =
    Noise_alias.perturb (Noise_alias.create ~seed:1 ~salt:"a") ~sigma:0.05 1.0
  in
  let s2 =
    Noise_alias.perturb (Noise_alias.create ~seed:1 ~salt:"b") ~sigma:0.05 1.0
  in
  Alcotest.(check bool) "different salt, different draw" true (s1 <> s2)

let test_noise_nonnegative () =
  let rng = Noise_alias.create ~seed:3 ~salt:() in
  for _ = 1 to 1000 do
    let v = Noise_alias.perturb rng ~sigma:0.5 1e-9 in
    if v < 0. then Alcotest.fail "negative time"
  done

(* -- instrumentation modes -------------------------------------------------------- *)

let kernel_named name = Spec.find_kernel tiny_app name

let test_modes () =
  let hot = kernel_named "hot" and helper = kernel_named "helper" in
  Alcotest.(check bool) "full instruments helper" true
    (Instr.instrumented Instr.Full helper);
  Alcotest.(check bool) "default skips tiny helper" false
    (Instr.instrumented Instr.Default helper);
  Alcotest.(check bool) "default keeps hot" true
    (Instr.instrumented Instr.Default hot);
  Alcotest.(check bool) "uninstrumented observes nothing" false
    (Instr.observed Instr.Uninstrumented hot);
  let sel = Instr.Selective (Instr.SSet.singleton "hot") in
  Alcotest.(check bool) "selective keeps chosen" true (Instr.instrumented sel hot);
  Alcotest.(check bool) "selective drops others" false
    (Instr.instrumented sel helper)

(* -- simulator ----------------------------------------------------------------------- *)

let test_full_costs_more () =
  let t mode = (Sim.measure tiny_app machine ~params ~mode).Sim.rn_total in
  Alcotest.(check bool) "full > uninstrumented" true
    (t Instr.Full > t Instr.Uninstrumented);
  Alcotest.(check bool) "default ~ cheap" true
    (t Instr.Default < t Instr.Full)

let test_per_call_metric () =
  let run = Sim.measure ~sigma:0. tiny_app machine ~params ~mode:Instr.Full in
  match Sim.kernel_measurement run "hot" with
  | Some km ->
    Alcotest.(check (float 1e-9)) "calls" 10. km.Sim.km_calls;
    (* per-call = 1e-4 * n = 8e-4, plus the additive jitter floor *)
    Alcotest.(check bool) "per-call near truth" true
      (Float.abs (km.Sim.km_per_call -. 8e-4) < 5e-5);
    Alcotest.(check (float 1e-9)) "total = per-call * calls"
      (km.Sim.km_per_call *. 10.) km.Sim.km_total
  | None -> Alcotest.fail "hot kernel must be observed"

let test_unobserved_absent () =
  let sel = Instr.Selective (Instr.SSet.singleton "hot") in
  let run = Sim.measure tiny_app machine ~params ~mode:sel in
  Alcotest.(check bool) "helper invisible" true
    (Sim.kernel_time run "helper" = None)

let test_overhead_sign () =
  let run = Sim.measure tiny_app machine ~params ~mode:Instr.Full in
  Alcotest.(check bool) "full overhead strictly positive" true
    (Sim.overhead run > 0.1)

let test_reproducible_runs () =
  let r1 = Sim.measure ~seed:9 tiny_app machine ~params ~mode:Instr.Full in
  let r2 = Sim.measure ~seed:9 tiny_app machine ~params ~mode:Instr.Full in
  Alcotest.(check (float 0.)) "identical totals" r1.Sim.rn_total r2.Sim.rn_total

(* -- experiments ------------------------------------------------------------------------ *)

let design mode =
  { Exp.grid = [ ("n", [ 2.; 4. ]); ("p", [ 1.; 2.; 3. ]) ];
    reps = 2; mode; sigma = 0.01; seed = 1 }

let test_configs_cartesian () =
  let cs = Exp.configs (design Instr.Full) in
  Alcotest.(check int) "2 x 3 configurations" 6 (List.length cs);
  Alcotest.(check bool) "all distinct" true
    (List.length (List.sort_uniq compare cs) = 6)

let test_run_design_count () =
  let runs = Exp.run_design tiny_app machine (design Instr.Full) in
  Alcotest.(check int) "configs x reps" 12 (Exp.run_count runs)

let test_kernel_dataset_shape () =
  let runs = Exp.run_design tiny_app machine (design Instr.Full) in
  let data = Exp.kernel_dataset runs ~params:[ "n" ] ~kernel:"hot" in
  (* Keyed by n only: 2 points, each with 3 (p) x 2 (reps) = 6 reps. *)
  Alcotest.(check int) "two points" 2 (List.length data.Model.Dataset.points);
  List.iter
    (fun (pt : Model.Dataset.point) ->
      Alcotest.(check int) "six reps" 6 (List.length pt.Model.Dataset.reps))
    data.Model.Dataset.points

let test_total_dataset () =
  let runs = Exp.run_design tiny_app machine (design Instr.Uninstrumented) in
  let data = Exp.total_dataset runs ~params:[ "n"; "p" ] in
  Alcotest.(check int) "six points" 6 (List.length data.Model.Dataset.points)

let test_core_hours () =
  (* One run at p=2 lasting rn_total seconds costs 2*rn_total/3600 h. *)
  let runs =
    [ Sim.measure tiny_app machine ~params:[ ("n", 1.); ("p", 2.) ]
        ~mode:Instr.Uninstrumented ]
  in
  let expected =
    (List.hd runs).Sim.rn_total *. 2. /. 3600.
  in
  Alcotest.(check (float 1e-12)) "core hours" expected (Exp.core_hours runs)

let test_ranks_per_node_override () =
  Alcotest.(check int) "explicit r honored" 4
    (Sim.ranks_per_node_of machine [ ("p", 64.); ("r", 4.) ]);
  Alcotest.(check int) "default fills cores" 36
    (Sim.ranks_per_node_of machine [ ("p", 64.) ]);
  Alcotest.(check int) "small p fits" 8
    (Sim.ranks_per_node_of machine [ ("p", 8.) ])

let test_default_design () =
  let d = Exp.default_design in
  Alcotest.(check int) "empty grid has one (empty) config" 1
    (List.length (Exp.configs d))

(* -- MPI cost database ----------------------------------------------------------- *)

let test_costdb_coverage () =
  (* Every routine the apps use must be in the database. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in database") true
        (Mpi_sim.Costdb.find name <> None))
    [ "mpi_comm_size"; "mpi_comm_rank"; "mpi_send"; "mpi_recv"; "mpi_isend";
      "mpi_irecv"; "mpi_wait"; "mpi_barrier"; "mpi_bcast"; "mpi_reduce";
      "mpi_allreduce"; "mpi_allgather" ]

let test_costdb_predicates () =
  Alcotest.(check bool) "mpi_allreduce is relevant" true
    (Mpi_sim.Costdb.relevant_prim "mpi_allreduce");
  Alcotest.(check bool) "mpi_comm_size is relevant (taint source)" true
    (Mpi_sim.Costdb.relevant_prim "mpi_comm_size");
  Alcotest.(check bool) "mpi_comm_rank is not relevant" false
    (Mpi_sim.Costdb.relevant_prim "mpi_comm_rank");
  Alcotest.(check bool) "work is not an MPI prim" false
    (Mpi_sim.Costdb.is_mpi_prim "work");
  Alcotest.(check bool) "mpi_wait is an MPI prim" true
    (Mpi_sim.Costdb.is_mpi_prim "mpi_wait")

let test_costdb_costs_monotone_in_p () =
  (* Collectives must not get cheaper with more ranks. *)
  List.iter
    (fun name ->
      match Mpi_sim.Costdb.find name with
      | Some r when r.Mpi_sim.Costdb.collective ->
        let c p = r.Mpi_sim.Costdb.cost ~p ~count:1024 machine in
        Alcotest.(check bool) (name ^ " monotone in p") true
          (c 4 <= c 16 && c 16 <= c 256)
      | _ -> ())
    Mpi_sim.Costdb.routine_names

let test_costdb_costs_monotone_in_count () =
  List.iter
    (fun name ->
      match Mpi_sim.Costdb.find name with
      | Some r when r.Mpi_sim.Costdb.count_arg <> None ->
        let c count = r.Mpi_sim.Costdb.cost ~p:16 ~count machine in
        Alcotest.(check bool) (name ^ " monotone in count") true
          (c 1 <= c 1024 && c 1024 <= c 65536)
      | _ -> ())
    Mpi_sim.Costdb.routine_names

let test_costdb_costs_positive () =
  List.iter
    (fun (r : Mpi_sim.Costdb.routine) ->
      Alcotest.(check bool) (r.name ^ " positive") true
        (r.cost ~p:8 ~count:64 machine > 0.))
    Mpi_sim.Costdb.routines

(* -- sparse datasets --------------------------------------------------------------- *)

(* [kernel_dataset] skips runs where the kernel was not observed — the
   false-negative effect of a filter — while [total_dataset] keeps every
   run (totals are always measured).  Pinned here because the robust
   campaign fit depends on exactly this skipping behaviour. *)

let test_kernel_dataset_skips_unobserved () =
  let sel = design (Instr.Selective (Instr.SSet.singleton "hot")) in
  let runs = Exp.run_design tiny_app machine sel in
  let helper = Exp.kernel_dataset runs ~params:[ "n" ] ~kernel:"helper" in
  Alcotest.(check int) "unobserved kernel yields no points" 0
    (List.length helper.Model.Dataset.points);
  let hot = Exp.kernel_dataset runs ~params:[ "n" ] ~kernel:"hot" in
  Alcotest.(check int) "observed kernel keeps its grid" 2
    (List.length hot.Model.Dataset.points)

let test_kernel_dataset_mixed_modes () =
  (* Half the runs are uninstrumented: the kernel dataset must contain
     only the observed half, with correspondingly fewer reps. *)
  let full = Exp.run_design tiny_app machine (design Instr.Full) in
  let blind = Exp.run_design tiny_app machine (design Instr.Uninstrumented) in
  let data = Exp.kernel_dataset (full @ blind) ~params:[ "n" ] ~kernel:"hot" in
  Alcotest.(check int) "points from observed runs only" 2
    (List.length data.Model.Dataset.points);
  List.iter
    (fun (pt : Model.Dataset.point) ->
      Alcotest.(check int) "blind runs contribute no reps" 6
        (List.length pt.Model.Dataset.reps))
    data.Model.Dataset.points

let test_total_dataset_keeps_all_runs () =
  let full = Exp.run_design tiny_app machine (design Instr.Full) in
  let blind = Exp.run_design tiny_app machine (design Instr.Uninstrumented) in
  let data = Exp.total_dataset (full @ blind) ~params:[ "n" ] in
  Alcotest.(check int) "two points" 2 (List.length data.Model.Dataset.points);
  List.iter
    (fun (pt : Model.Dataset.point) ->
      Alcotest.(check int) "totals from every run" 12
        (List.length pt.Model.Dataset.reps))
    data.Model.Dataset.points

(* -- properties ----------------------------------------------------------------------------- *)

let prop_noise_stream_reproducible =
  QCheck.Test.make ~count:100 ~name:"same seed and salt, identical stream"
    QCheck.(triple small_int string (int_range 1 50))
    (fun (seed, salt, n) ->
      let draws () =
        let rng = Noise_alias.create ~seed ~salt in
        List.init n (fun _ -> Noise_alias.perturb rng ~sigma:0.1 1.0)
      in
      draws () = draws ())

let prop_noise_never_negative =
  QCheck.Test.make ~count:500 ~name:"perturb never negative at extreme sigma"
    QCheck.(triple small_int (float_bound_exclusive 10.) pos_float)
    (fun (seed, sigma, x) ->
      Noise_alias.perturb (Noise_alias.create ~seed ~salt:"neg") ~sigma x >= 0.)

let prop_noise_floor_dominates_near_zero =
  QCheck.Test.make ~count:200 ~name:"floor dominates a zero-length duration"
    QCheck.(pair small_int (float_bound_exclusive 1e-3))
    (fun (seed, floor) ->
      QCheck.assume (floor > 0.);
      (* At x = 0 the multiplicative term vanishes, so the draw is the
         additive floor term alone: doubling the floor doubles it. *)
      let draw f =
        Noise_alias.perturb ~floor:f
          (Noise_alias.create ~seed ~salt:"floor")
          ~sigma:0.5 0.
      in
      let d1 = draw floor in
      d1 >= 0. && Float.abs (draw (2. *. floor) -. (2. *. d1)) <= 1e-15)

let prop_selective_cheaper_than_full =
  QCheck.Test.make ~count:50 ~name:"selective never costs more than full"
    QCheck.(pair (int_range 1 64) (int_range 1 32))
    (fun (n, p) ->
      let params = [ ("n", float_of_int n); ("p", float_of_int p) ] in
      let t mode = (Sim.measure ~sigma:0. tiny_app machine ~params ~mode).Sim.rn_total in
      t (Instr.Selective (Instr.SSet.singleton "hot")) <= t Instr.Full +. 1e-12)

let prop_base_total_mode_independent =
  QCheck.Test.make ~count:50 ~name:"uninstrumented baseline independent of mode"
    QCheck.(int_range 1 64)
    (fun n ->
      let params = [ ("n", float_of_int n); ("p", 2.) ] in
      let b mode = (Sim.measure tiny_app machine ~params ~mode).Sim.rn_base_total in
      b Instr.Full = b Instr.Uninstrumented && b Instr.Default = b Instr.Full)

let tests =
  [
    Alcotest.test_case "contention is monotone" `Quick test_contention_monotone;
    Alcotest.test_case "no contention for one rank" `Quick
      test_contention_unit_at_one;
    Alcotest.test_case "cores per node" `Quick test_cores_per_node;
    Alcotest.test_case "noise is deterministic" `Quick test_noise_deterministic;
    Alcotest.test_case "noise differs across salts" `Quick
      test_noise_salt_differs;
    Alcotest.test_case "noise never negative" `Quick test_noise_nonnegative;
    Alcotest.test_case "instrumentation modes" `Quick test_modes;
    Alcotest.test_case "full instrumentation costs more" `Quick
      test_full_costs_more;
    Alcotest.test_case "per-call metric" `Quick test_per_call_metric;
    Alcotest.test_case "unobserved kernels absent" `Quick test_unobserved_absent;
    Alcotest.test_case "overhead positive under full" `Quick test_overhead_sign;
    Alcotest.test_case "runs reproducible by seed" `Quick test_reproducible_runs;
    Alcotest.test_case "configs are the cartesian grid" `Quick
      test_configs_cartesian;
    Alcotest.test_case "run count = configs x reps" `Quick test_run_design_count;
    Alcotest.test_case "kernel dataset grouping" `Quick test_kernel_dataset_shape;
    Alcotest.test_case "total dataset" `Quick test_total_dataset;
    Alcotest.test_case "core-hour accounting" `Quick test_core_hours;
    Alcotest.test_case "ranks-per-node override" `Quick
      test_ranks_per_node_override;
    Alcotest.test_case "default design" `Quick test_default_design;
    Alcotest.test_case "costdb covers the app routines" `Quick
      test_costdb_coverage;
    Alcotest.test_case "costdb predicates" `Quick test_costdb_predicates;
    Alcotest.test_case "collective costs monotone in p" `Quick
      test_costdb_costs_monotone_in_p;
    Alcotest.test_case "costs monotone in count" `Quick
      test_costdb_costs_monotone_in_count;
    Alcotest.test_case "costs positive" `Quick test_costdb_costs_positive;
    Alcotest.test_case "kernel dataset skips unobserved runs" `Quick
      test_kernel_dataset_skips_unobserved;
    Alcotest.test_case "kernel dataset under mixed modes" `Quick
      test_kernel_dataset_mixed_modes;
    Alcotest.test_case "total dataset keeps every run" `Quick
      test_total_dataset_keeps_all_runs;
    QCheck_alcotest.to_alcotest prop_selective_cheaper_than_full;
    QCheck_alcotest.to_alcotest prop_base_total_mode_independent;
    Seeded.to_alcotest prop_noise_stream_reproducible;
    Seeded.to_alcotest prop_noise_never_negative;
    Seeded.to_alcotest prop_noise_floor_dominates_near_zero;
  ]
