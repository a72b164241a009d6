(** Small dense linear algebra for PMNF coefficient fitting: least
    squares by the normal equations, factored once (Gaussian elimination
    with partial pivoting) and kept, so leverages reuse the
    factorization. *)

val solve : float array array -> float array -> float array option
(** Gaussian elimination with partial pivoting; [None] when a pivot
    falls below 1e-12 in magnitude or the solution is not finite. *)

type lu
type fit = private { coeffs : float array; lu : lu }

val fit : float array array -> float array -> fit option
(** Least squares of [design] rows against observations: the
    coefficients minimising ||design * c - y||^2 and the factorization of
    XᵀX that gave them; [None] for under-determined or singular
    systems. *)

val least_squares : float array array -> float array -> float array option
(** The coefficients of {!fit}. *)

val leverage : fit -> float array -> float
(** xᵀ(XᵀX)⁻¹x from the fit's factorization — for a design row, its
    diagonal entry of the hat matrix; NaN if not finite. *)

val residuals : float array array -> float array -> float array -> float array
(** [residuals design y coeffs]: y_r − design_r · coeffs per row. *)
