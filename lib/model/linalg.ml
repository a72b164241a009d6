(** Small dense linear algebra: ordinary least squares via normal
    equations, factored once by Gaussian elimination with partial
    pivoting.  The PMNF hypothesis spaces are tiny (at most ~5 columns),
    so numerical sophistication beyond pivoting is unnecessary.  All of
    it runs in a caller-owned {!workspace}: a fit leaves its
    coefficients and its factorization of XᵀX there, so a row's leverage
    xᵀ(XᵀX)⁻¹x costs one more solve against it, not a refit, and scoring
    a hypothesis allocates nothing. *)

(* [u]'s leading k×k block holds U on and above the diagonal and the
   elimination multipliers below it; rows were swapped whole, so
   applying the swaps [perm.(col)] in order permutes a right-hand side
   to match.  [coeffs] and [z] are right-hand sides solved in place. *)
type workspace = {
  u : float array array;
  perm : int array;
  coeffs : float array;
  z : float array;
  mutable k : int;
}

let workspace ~cols =
  { u = Array.make_matrix cols cols 0.; perm = Array.make cols 0;
    coeffs = Array.make cols 0.; z = Array.make cols 0.; k = 0 }

(* A pivot below 1e-12 in magnitude counts as singular. *)
let factor ws =
  let u = ws.u and n = ws.k in
  let rec step col =
    col = n
    || begin
      let piv = ref col in
      for r = col + 1 to n - 1 do
        if Float.abs u.(r).(col) > Float.abs u.(!piv).(col) then piv := r
      done;
      ws.perm.(col) <- !piv;
      let tmp = u.(col) in u.(col) <- u.(!piv); u.(!piv) <- tmp;
      (not (Float.abs u.(col).(col) < 1e-12))
      && begin
        for r = col + 1 to n - 1 do
          let f = u.(r).(col) /. u.(col).(col) in
          for c = col + 1 to n - 1 do
            u.(r).(c) <- u.(r).(c) -. (f *. u.(col).(c))
          done;
          u.(r).(col) <- f
        done;
        step (col + 1)
      end
    end
  in
  step 0

(* Solves the factored system for the first k entries of [x], in place;
   false if the solution is not finite.  Every value takes the same
   floating-point operations, in the same order, as eliminating the
   right-hand side alongside the matrix. *)
let solve_in ws x =
  let u = ws.u and n = ws.k in
  for c = 0 to n - 1 do
    let p = ws.perm.(c) in
    let t = x.(c) in x.(c) <- x.(p); x.(p) <- t
  done;
  for c = 0 to n - 1 do
    for r = c + 1 to n - 1 do x.(r) <- x.(r) -. (u.(r).(c) *. x.(c)) done
  done;
  for r = n - 1 downto 0 do
    let s = ref x.(r) in
    for c = r + 1 to n - 1 do s := !s -. (u.(r).(c) *. x.(c)) done;
    x.(r) <- !s /. u.(r).(r)
  done;
  let finite = ref true in
  for r = 0 to n - 1 do
    if not (Float.is_finite x.(r)) then finite := false
  done;
  !finite

let solve a b =
  let n = Array.length b in
  let ws = workspace ~cols:n in
  ws.k <- n;
  Array.iteri (fun i row -> Array.blit row 0 ws.u.(i) 0 n) a;
  let x = Array.copy b in
  if factor ws && solve_in ws x then Some x else None

(* Normal equations (XᵀX) c = Xᵀy, each entry summed over the rows in
   order.  XᵀX is symmetric entry for entry (the products commute), so
   the upper triangle is computed and mirrored. *)
let fit ws cols y =
  let k = Array.length cols and n = Array.length y in
  ws.k <- k;
  n > 0 && n >= k
  && begin
    let u = ws.u in
    for i = 0 to k - 1 do
      let ci = cols.(i) in
      let s = ref 0. in
      for r = 0 to n - 1 do s := !s +. (ci.(r) *. y.(r)) done;
      ws.coeffs.(i) <- !s;
      for j = i to k - 1 do
        let cj = cols.(j) in
        let s = ref 0. in
        for r = 0 to n - 1 do s := !s +. (ci.(r) *. cj.(r)) done;
        u.(i).(j) <- !s;
        u.(j).(i) <- !s
      done
    done;
    factor ws && solve_in ws ws.coeffs
  end

let coefficients ws = ws.coeffs

let least_squares design y =
  if Array.length design = 0 then None
  else begin
    let cols =
      Array.init (Array.length design.(0)) (fun j ->
          Array.map (fun row -> row.(j)) design)
    in
    let ws = workspace ~cols:(Array.length cols) in
    if fit ws cols y then Some (Array.sub ws.coeffs 0 ws.k) else None
  end

(* NaN, which fails every comparison, where the solve is not finite. *)
let leverages ws cols out =
  let k = ws.k and z = ws.z in
  for i = 0 to Array.length out - 1 do
    for j = 0 to k - 1 do z.(j) <- cols.(j).(i) done;
    out.(i) <-
      (if solve_in ws z then begin
         let s = ref 0. in
         for j = 0 to k - 1 do s := !s +. (cols.(j).(i) *. z.(j)) done;
         !s
       end
       else Float.nan)
  done
