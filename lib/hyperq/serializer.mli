(** Serialization of XTRA expressions into PG-compatible SQL (the last
    translation stage, paper Section 3.2).

    Simple operator stacks flatten into a single SELECT; joins, as-of
    joins, unions and mixed stacks become nested subqueries. The as-of
    join lowers to the paper's Section 3.2.2 pattern: LEFT OUTER JOIN with
    a range condition plus a ROW_NUMBER window picking the most recent
    match per left row. *)

exception Serialize_error of string

(** Serialize one scalar expression (the engine's FROM-less scalar
    queries). Raises {!Serialize_error} on a 2VL equality. *)
val sql_of_scalar : Xtra.Ir.scalar -> Sqlast.Ast.expr

(** Serialize a relational tree to a SELECT. Raises {!Serialize_error}
    on a 2VL equality: {!Xformer.two_valued_logic} must run first. *)
val serialize : Xtra.Ir.rel -> Sqlast.Ast.select

(** {!serialize} followed by printing to SQL text. *)
val serialize_to_sql : Xtra.Ir.rel -> string
