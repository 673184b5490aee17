(** Schema objects shared between the pgdb backend and Hyper-Q's metadata
    interface (the paper's MDI, Section 3.2.3). *)

type column = { col_name : string; col_type : Sqltype.t }

type table_def = {
  tbl_name : string;
  tbl_columns : column list;
  tbl_keys : string list;  (** primary/unique key columns, possibly empty *)
  tbl_order_col : string option;
      (** the implicit Q ordering column, when the table was created by
          Hyper-Q's schema mapping *)
  tbl_temp : bool;
}

let column name ty = { col_name = name; col_type = ty }

let table ?(keys = []) ?order_col ?(temp = false) name columns =
  {
    tbl_name = name;
    tbl_columns = columns;
    tbl_keys = keys;
    tbl_order_col = order_col;
    tbl_temp = temp;
  }
