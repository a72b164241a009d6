(** Small dense linear algebra for PMNF coefficient fitting: least
    squares by the normal equations, factored once (Gaussian elimination
    with partial pivoting) into a reusable {!workspace}, so leverages
    reuse the factorization and a fit allocates nothing. *)

val solve : float array array -> float array -> float array option
(** Gaussian elimination with partial pivoting; [None] when a pivot
    falls below 1e-12 in magnitude or the solution is not finite. *)

type workspace
(** Scratch for fits of up to [cols] columns: the factorization of XᵀX
    and the coefficients of the last {!fit}.  Owned by one domain. *)

val workspace : cols:int -> workspace

val fit : workspace -> float array array -> float array -> bool
(** [fit ws cols y]: least squares of the design whose columns are
    [cols] (each as long as [y]) — the coefficients minimising
    ||X c − y||² — into [ws].  [false] for under-determined, singular
    (a pivot below 1e-12) or non-finite systems. *)

val coefficients : workspace -> float array
(** The last successful {!fit}'s coefficients, intercept column first,
    in the leading entries of the workspace's own array (overwritten by
    the next fit: copy to keep). *)

val leverages : workspace -> float array array -> float array -> unit
(** [leverages ws cols out] sets [out.(i)] to x_iᵀ(XᵀX)⁻¹x_i for row i
    of the last fitted design [cols] — its diagonal entry of the hat
    matrix — or NaN where that solve is not finite. *)

val least_squares : float array array -> float array -> float array option
(** The coefficients of {!fit} for a design given as rows. *)
