(** The Xformer: XTRA-to-XTRA transformations (paper Section 3.3).

    Passes fall into the paper's three groups — correctness (2VL
    rewriting), performance (column pruning, filter fusion) and
    transparency (root order enforcement, then the required-order pass
    that drops unobserved sorts). {!optimize} runs all of them. *)

(** Correctness: rewrite Q's 2VL equalities ([Eq2]/[Neq2]) in one scalar
    into null-safe [IS NOT DISTINCT FROM] forms. *)
val two_valued_scalar : Xtra.Ir.scalar -> Xtra.Ir.scalar

(** {!two_valued_scalar} over every scalar of a tree. *)
val two_valued_logic : Xtra.Ir.rel -> Xtra.Ir.rel

(** Performance: collapse adjacent filters into one conjunction. *)
val filter_fusion : Xtra.Ir.rel -> Xtra.Ir.rel

(** Performance: trim every operator's output to the columns actually
    required above it (the wide-table SQL-bloat defence). *)
val column_pruning : Xtra.Ir.rel -> Xtra.Ir.rel

(** Transparency: sort the root by its implicit order column when Q's
    ordered-table semantics require it and no explicit ordering exists. *)
val enforce_root_order : Xtra.Ir.rel -> Xtra.Ir.rel

(** Transparency: drop every [Sort] whose order no consumer observes. A
    top-down pass: the root's order is observed, and each operator
    states whether it needs its inputs' order (a limit, an
    order-sensitive aggregate or window, a sort with ties, ...). Runs
    after {!enforce_root_order}, whose root sort states the result
    order. *)
val required_order : Xtra.Ir.rel -> Xtra.Ir.rel

(** Run every pass: 2VL rewriting, filter fusion, root order
    enforcement, order elision, column pruning. *)
val optimize : Xtra.Ir.rel -> Xtra.Ir.rel
