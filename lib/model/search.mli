(** PMNF hypothesis search — the Extra-P model generator (paper Section
    4.5), with the published single-parameter search space and the
    multi-parameter best-single-models heuristic.  The hybrid (tainted)
    mode restricts the space through {!constraints}. *)

type aggregate =
  | Mean    (** classic Extra-P: fit the mean of the repetitions *)
  | Median  (** robust to corrupted repetitions *)

type config = {
  exponents : float list;    (** the set I of polynomial exponents *)
  log_exponents : int list;  (** the set J of logarithm exponents *)
  max_terms : int;           (** n in the PMNF; the paper uses 2 *)
  min_improvement : float;
      (** relative cross-validated-error margin a parametric hypothesis
          must gain over the constant model.  Default 0 — Extra-P 3.0's
          pure best-fit selection, which is what lets noise on constant
          functions be modeled (the B1 failure mode); set to ~0.1 as an
          opt-in guard. *)
  aggregate : aggregate;
      (** how a point's repeated measurements collapse into the fitted
          value; default [Mean] *)
  metrics : Obs_metrics.t option;
      (** when set, the search records [search.candidates.single_term],
          [search.candidates.two_term], [search.candidates.multi_param],
          [search.evaluated], [search.lsq_solves],
          [search.rejected.unfit] and [search.rejected.threshold]
          counters into this registry.
          Default [None]: no accounting, no overhead. *)
  pool : Par.Pool.t option;
      (** when set, candidate hypotheses are scored on this domain pool,
          each one independently from design columns built beforehand,
          each worker domain in its own scratch; selection stays a
          serial fold in candidate order, so the chosen model, error,
          and every search.* counter are bit-identical to the serial
          search.
          Default [None]: serial scoring. *)
  events : Obs_events.sink;
      (** structured {!event_names} stream — best-so-far improvements
          ([search.best], debug) and the final selection
          ([search.selected]).  Emitted from the serial selection fold,
          so the stream is identical with or without a pool.  Default
          [Obs_events.disabled]. *)
}

val default_config : config
(** The exact single-parameter search space printed in the paper. *)

val extended_config : config
(** [default_config] plus negative polynomial exponents, for
    strong-scaling metrics that shrink with a parameter. *)

val algorithm_version : int
(** Revision of the scoring and selection algorithm; bumped whenever the
    same data and config could select a different model. *)

val fingerprint : config -> string
(** One exact line naming {!algorithm_version} and every config field
    that changes the selected model ([metrics], [pool] and [events] do
    not).  Equal fingerprints mean the search picks the same model. *)

val event_names : (string * string) list
(** The [search.*] structured-event vocabulary (name, meaning) — kept in
    sync with doc/OBSERVABILITY.md by a drift test. *)

type constraints = {
  allowed : string list option;
      (** parameters permitted to appear; [None] = all (black-box mode) *)
  multiplicative : (string -> string -> bool) option;
      (** may these two parameters share a product term? [None] = yes *)
}

val unconstrained : constraints

type result = {
  model : Expr.model;
  error : float;  (** leave-one-out cross-validated SMAPE, percent *)
  rss : float;
  hypotheses_tried : int;
}

type hypothesis = (string * Expr.simple_term) list list
(** Basis terms (products of per-parameter factors); intercept implicit. *)

type scorer =
  coords:(string * float) list array -> y:float array -> hypothesis ->
  (float * float * float array) option
(** Fits a hypothesis to the points [(coords.(i), y.(i))]: its
    leave-one-out SMAPE, RSS and coefficients (intercept first, then
    the hypothesis' terms), or [None] if it cannot be fitted or
    cross-validated. *)

val closed_form_loo : scorer
(** The search's own scorer, on a freshly built design: one
    factorization per hypothesis; left-out predictions y_i − e_i/(1 − h_ii)
    from the full fit's residuals and leverages.  Rejects when some
    1 − h_ii ≤ 1e-8 (dropping point i leaves a singular sub-design). *)

val single :
  ?config:config ->
  ?constraints:constraints ->
  ?score:scorer ->
  param:string ->
  (float * float) list ->
  result
(** Best single-parameter model of [(x, y)] samples.  The constant model
    always participates; a hypothesis must beat it on cross-validated
    error to be selected.  Without [score], each term of the menu is
    evaluated once per sample and every hypothesis is scored by the
    closed-form kernel over those columns; [score] lets tests substitute
    a reference scorer.  [search.lsq_solves] counts the kernel's work. *)

val multi :
  ?config:config ->
  ?constraints:constraints ->
  ?score:scorer ->
  Dataset.t ->
  result
(** Multi-parameter search: per-parameter best single models on slices
    where the other parameters sit at their minimum, then all
    additive/multiplicative compositions of their dominant terms.
    @raise Invalid_argument on a dataset with no points
    (["Model.Search.multi: empty dataset (no observed configurations)"]). *)

val multi_robust :
  ?threshold:float ->
  ?config:config ->
  ?constraints:constraints ->
  Dataset.t ->
  result * int
(** Degradation-tolerant {!multi}: per configuration, repetitions whose
    modified z-score exceeds [threshold] (default 3.5; see
    {!Stats.mad_filter}) are rejected, configurations left empty are
    dropped, and the survivors are aggregated by median.  Returns the
    fit plus the number of rejected measurements.
    @raise Invalid_argument when rejection leaves no points at all. *)
