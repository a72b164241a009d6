type measured = {
  spec : Measure.Spec.app;
  grid : (string * float list) list;
  search : Model.Search.config;
  contention : string * float;
}

type t = {
  name : string;
  program : Ir.Types.program;
  taint_args : Ir.Types.value list;
  taint_world : Mpi_sim.Runtime.world;
  model_params : string list;
  aliases : (string * string list) list;
  measured : measured option;
}

let didactic name program taint_args model_params =
  { name; program; taint_args; taint_world = Mpi_sim.Runtime.default_world;
    model_params; aliases = []; measured = None }

let all =
  [
    {
      name = "lulesh";
      program = Lulesh.program;
      taint_args = Lulesh.taint_args;
      taint_world = Lulesh.taint_world;
      model_params = Lulesh.model_params;
      aliases = [];
      measured =
        Some
          {
            spec = Lulesh_spec.app;
            grid =
              [ ("p", Lulesh_spec.p_values); ("size", Lulesh_spec.size_values);
                ("r", [ 8. ]) ];
            search = Model.Search.default_config;
            contention = ("size", 30.);
          };
    };
    {
      name = "milc";
      program = Milc.program;
      taint_args = Milc.taint_args;
      taint_world = Milc.taint_world;
      model_params = Milc.model_params;
      aliases = [ ("size", [ "nx"; "ny"; "nz"; "nt" ]) ];
      measured =
        Some
          {
            spec = Milc_spec.app;
            grid =
              [ ("p", Milc_spec.p_values); ("size", Milc_spec.size_values);
                ("r", [ 8. ]) ];
            search = Model.Search.extended_config;
            contention = ("size", 30.);
          };
    };
    {
      name = "minicg";
      program = Minicg.program;
      taint_args = Minicg.taint_args;
      taint_world = Minicg.taint_world;
      model_params = Minicg.model_params;
      aliases = [];
      measured =
        Some
          {
            spec = Minicg_spec.app;
            grid =
              [ ("p", Minicg_spec.p_values); ("n", Minicg_spec.n_values);
                ("r", [ 8. ]) ];
            search = Model.Search.extended_config;
            contention = ("n", 1.0e6);
          };
    };
    didactic "iterate" Didactic.iterate_example [ VInt 10; VInt 2 ]
      [ "size"; "step" ];
    didactic "foo" Didactic.foo_example [ VInt 3; VInt 1; VInt 0 ]
      [ "a"; "b"; "c" ];
    didactic "matrix" Didactic.matrix_init [ VInt 6; VInt 8 ]
      [ "rows"; "cols" ];
    didactic "select" Didactic.algorithm_selection [ VInt 2 ] [ "a" ];
  ]

let names = List.map (fun t -> t.name) all
let find name = List.find_opt (fun t -> t.name = name) all

let measured_names =
  List.filter_map (fun t -> Option.map (fun _ -> t.name) t.measured) all

let require_measured t =
  match t.measured with
  | Some m -> Ok m
  | None ->
    Error
      (Printf.sprintf "%s has no measurement spec (measured apps: %s)" t.name
         (String.concat ", " measured_names))
