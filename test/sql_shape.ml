(* Shape checks over generated SQL text, shared by the test executables:
   the text is parsed back with pgdb's parser, so a window's ORDER BY
   inside OVER (...) is not mistaken for a SELECT's. *)

module A = Sqlast.Ast

(** The SELECTs of one statement, nested ones included, that carry an
    ORDER BY clause. *)
let order_bys (sql : string) : int =
  let rec select (s : A.select) =
    (if s.A.order_by = [] then 0 else 1)
    + match s.A.from with Some f -> from f | None -> 0
  and from = function
    | A.TableRef _ -> 0
    | A.SubqueryRef (s, _) -> select s
    | A.UnionRef (ss, _) -> List.fold_left (fun n s -> n + select s) 0 ss
    | A.JoinItem { left; right; _ } -> from left + from right
  in
  match Pgdb.Sql_parser.parse sql with
  | A.Select s -> select s
  | _ -> invalid_arg ("not a SELECT: " ^ sql)
