(** The bundled programs, one descriptor each: everything the CLI, the
    serve daemon and the bench need to know about an application.  Adding
    a bundled app is one entry in {!all}. *)

type measured = {
  spec : Measure.Spec.app;  (** ground truth for the cluster simulator *)
  grid : (string * float list) list;
      (** the 5x5 campaign grid, ranks-per-node pinned to 8; the fitted
          parameters are its axes with more than one value
          ({!Measure.Experiment.fit_params}) *)
  search : Model.Search.config;  (** per-kernel model search space *)
  contention : string * float;
      (** the problem-size axis and value held fixed while the contention
          sweep varies ranks-per-node *)
}

type t = {
  name : string;
  program : Ir.Types.program;
  taint_args : Ir.Types.value list;  (** entry arguments of the tainted run *)
  taint_world : Mpi_sim.Runtime.world;
  model_params : string list;
  aliases : (string * string list) list;
      (** model parameter -> the program parameters it stands for *)
  measured : measured option;  (** [None]: no spec, analysis only *)
}

val all : t list
val names : string list
val find : string -> t option

val measured_names : string list
(** The apps with a measurement spec, in {!all} order. *)

val require_measured : t -> (measured, string) result
(** The app's measurement facts, or the error naming the apps that have
    them. *)
