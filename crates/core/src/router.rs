//! The one statement router. Every SQL entry point parses, then makes one
//! [`route`] call with the statement and the surface it arrived on; each
//! `query` entry point makes the one [`query`] call instead, which refuses
//! a statement that answers with no rows before it runs. So a statement
//! gets the same answer wherever it arrives, and a new statement kind is
//! one arm here. The README's "One front door" table says which surface
//! runs which statement kind.
//!
//! The `?` rule, checked before anything runs: a statement other than a
//! query or DML carrying a placeholder is `Unsupported`, prepared or not;
//! otherwise an entry point that takes no bindings refuses a placeholder
//! with a `Binding` error. `SELECT … FOR UPDATE` needs a transaction to
//! hold its locks until it retires, and is `Unsupported` anywhere else.

use std::borrow::Cow;

use parking_lot::MutexGuard;

use dt_common::{DtError, DtResult, Value};
use dt_plan::LogicalPlan;
use dt_sql::ast;

use crate::dml;
use crate::engine::{Engine, PlanCache, SessionInner};
use crate::snapshot::ReadSnapshot;
use crate::state::{ExecResult, QueryResult};
use crate::transaction::{is_serialization_conflict, Transaction};

/// Where a statement arrived.
pub(crate) enum Surface<'a> {
    /// A session, or a prepared statement with `plan`, its query's cached
    /// plan. `session` is `None` once a prepared statement outlived its
    /// session: reads still run, but nothing may run under a role other
    /// than its session's.
    Session {
        engine: &'a Engine,
        session: Option<&'a SessionInner>,
        plan: Option<&'a PlanCache>,
    },
    /// A [`Transaction`] handle's `execute`: DML buffers into it.
    Transaction(&'a mut Transaction),
    /// A [`Transaction`] handle's `query`, which only reads (see [`query`]).
    TransactionQuery(&'a Transaction),
    /// A pinned [`ReadSnapshot`] (`Session::query_at` pins a past one).
    Snapshot(&'a ReadSnapshot),
}

/// An entry point of the router: [`route`] or [`query`].
pub(crate) type Entry<T> = fn(Surface<'_>, &ast::Statement, &str, Option<&[Value]>) -> DtResult<T>;

/// Run `stmt`, parsed from `sql`, on `surface`. `params`, a prepared
/// statement's bindings (their number already checked), is `None` on the
/// entry points that take no bindings.
pub(crate) fn route(
    surface: Surface<'_>,
    stmt: &ast::Statement,
    sql: &str,
    params: Option<&[Value]>,
) -> DtResult<ExecResult> {
    if params.is_none() {
        check_placeholders(stmt, false)?;
    }
    let params = params.unwrap_or_default();
    match surface {
        Surface::Snapshot(snap) => read(snap, None, stmt, None, params),
        Surface::Transaction(txn) => in_transaction(txn, stmt, params),
        Surface::TransactionQuery(txn) => read(txn.snapshot(), Some(txn), stmt, None, params),
        Surface::Session {
            engine,
            session,
            plan,
        } => on_session(engine, session, stmt, sql, params, plan),
    }
}

/// A `query` entry point: [`route`] for a statement that answers with
/// rows. Any other kind is refused before anything runs, so a write a
/// `query` refuses is never buffered or committed.
pub(crate) fn query(
    surface: Surface<'_>,
    stmt: &ast::Statement,
    sql: &str,
    params: Option<&[Value]>,
) -> DtResult<QueryResult> {
    use ast::Statement::{Query, ShowDynamicTables, ShowStats};
    if !matches!(stmt, Query(_) | ShowDynamicTables | ShowStats) {
        return Err(not_a_query());
    }
    route(surface, stmt, sql, params)?
        .try_rows()
        .ok_or_else(not_a_query)
}

/// The `SELECT` of a statement an entry point plans but does not run
/// (`query_isolation_level`): the `?` rule, then any other kind refused.
pub(crate) fn select(stmt: &ast::Statement) -> DtResult<&ast::Query> {
    check_placeholders(stmt, false)?;
    match stmt {
        ast::Statement::Query(q) => Ok(q),
        _ => Err(not_a_query()),
    }
}

fn not_a_query() -> DtError {
    DtError::Unsupported("not a query".into())
}

/// The one `?` rule (see the module docs). `prepared` says whether the
/// entry point binds parameters; returns the number of placeholders.
pub(crate) fn check_placeholders(stmt: &ast::Statement, prepared: bool) -> DtResult<usize> {
    let n = stmt.placeholder_count();
    let binds = matches!(
        stmt,
        ast::Statement::Query(_)
            | ast::Statement::Insert { .. }
            | ast::Statement::Delete { .. }
            | ast::Statement::Update { .. }
    );
    if n > 0 && !binds {
        return Err(DtError::Unsupported(
            "`?` placeholders are only supported in queries and DML \
             (INSERT/UPDATE/DELETE), not DDL"
                .into(),
        ));
    }
    if n > 0 && !prepared {
        return Err(DtError::Binding(format!(
            "statement has {n} `?` placeholder(s); prepare it with \
             Session::prepare and bind values at execute time"
        )));
    }
    Ok(n)
}

/// A statement that writes nothing, over `snap`, or, with `txn`, over the
/// transaction's snapshot and its own buffered writes; inside a
/// transaction DDL, refreshes and transaction control are refused.
/// `plan` is a prepared query's plan, bound against `snap`.
fn read(
    snap: &ReadSnapshot,
    txn: Option<&Transaction>,
    stmt: &ast::Statement,
    plan: Option<&LogicalPlan>,
    params: &[Value],
) -> DtResult<ExecResult> {
    match (stmt, txn) {
        (ast::Statement::Query(q), _) => {
            if q.for_update && txn.is_none() {
                // A read outside a transaction retires as soon as it
                // returns: nothing would hold the locks.
                return Err(DtError::Unsupported(
                    "SELECT ... FOR UPDATE requires an explicit transaction".into(),
                ));
            }
            let plan = match plan {
                Some(plan) => Cow::Borrowed(plan),
                None => Cow::Owned(snap.bind_query(q)?.plan),
            };
            if let Some(txn) = txn.filter(|_| q.for_update) {
                txn.lock_for_update(&plan)?;
            }
            // The one parameter-binding step.
            let plan = if params.is_empty() && plan.max_parameter().is_none() {
                plan
            } else {
                Cow::Owned(plan.bind_params(params)?)
            };
            let rows = match txn {
                Some(txn) => txn.overlay().execute_plan(&plan)?,
                None => snap.execute_plan(&plan)?,
            };
            Ok(ExecResult::Rows(QueryResult::new(plan.schema(), rows)))
        }
        (ast::Statement::Explain(q), _) => snap.explain(q),
        (ast::Statement::ShowDynamicTables, _) => snap.show_dynamic_tables(),
        (ast::Statement::ShowStats, Some(txn)) => Ok(ExecResult::Rows(txn.engine.show_stats())),
        // `SHOW STATS` too: its counters are the engine's, not snapshot state.
        (_, None) => Err(DtError::Unsupported(
            "snapshots serve SELECT, EXPLAIN and SHOW DYNAMIC TABLES; writes \
             and SHOW STATS need a session or a transaction"
                .into(),
        )),
        (ast::Statement::Begin, _) => Err(DtError::Txn(
            "already in a transaction; nested BEGIN is not supported".into(),
        )),
        (ast::Statement::Commit | ast::Statement::Rollback, _) => Err(DtError::Unsupported(
            "on a Transaction handle, use Transaction::commit() / \
             Transaction::rollback() (SQL COMMIT/ROLLBACK drive the \
             session-scoped transaction opened with BEGIN)"
                .into(),
        )),
        _ => Err(DtError::Unsupported(
            "DDL and refreshes are not allowed inside a transaction; commit \
             or roll back first"
                .into(),
        )),
    }
}

/// A statement inside `txn`: DML is buffered until it commits, the rest
/// [`read`] runs.
fn in_transaction(
    txn: &mut Transaction,
    stmt: &ast::Statement,
    params: &[Value],
) -> DtResult<ExecResult> {
    match stmt {
        ast::Statement::Insert {
            table,
            values,
            query,
        } => txn.buffer(|o| dml::plan_insert(o, table, values, query.as_ref(), params)),
        ast::Statement::Delete { table, predicate } => {
            txn.buffer(|o| dml::plan_delete(o, table, predicate.as_ref(), params))
        }
        ast::Statement::Update {
            table,
            assignments,
            predicate,
        } => txn.buffer(|o| dml::plan_update(o, table, assignments, predicate.as_ref(), params)),
        _ => read(txn.snapshot(), Some(txn), stmt, None, params),
    }
}

/// A statement on a session: inside its open SQL-level transaction, if
/// any; otherwise reads run off a fresh snapshot with no engine lock, DML
/// auto-commits, a refresh computes with no engine lock, and every other
/// change — DDL, as the session's role — is run by the install leader
/// (`Engine::mutate`).
fn on_session(
    engine: &Engine,
    session: Option<&SessionInner>,
    stmt: &ast::Statement,
    sql: &str,
    params: &[Value],
    plan: Option<&PlanCache>,
) -> DtResult<ExecResult> {
    if let Some(session) = session {
        let mut open = session.txn.lock();
        match (stmt, open.as_mut()) {
            (ast::Statement::Begin, None)
            | (ast::Statement::Commit, _)
            | (ast::Statement::Rollback, _) => {
                return transaction_control(engine, session, open, stmt)
            }
            (_, Some(txn)) => return in_transaction(txn, stmt, params),
            _ => {}
        }
    }
    if let (ast::Statement::Query(q), Some(plan)) = (stmt, plan) {
        let (snap, plan) = plan.pin(engine, q)?;
        return read(&snap, None, stmt, Some(&plan), params);
    }
    let session = match stmt {
        ast::Statement::Query(_)
        | ast::Statement::Explain(_)
        | ast::Statement::ShowDynamicTables => {
            return read(&engine.snapshot(), None, stmt, None, params)
        }
        ast::Statement::ShowStats => return Ok(ExecResult::Rows(engine.show_stats())),
        _ => session.ok_or_else(|| {
            DtError::Unsupported("the session owning this prepared statement was closed".into())
        })?,
    };
    let role = || session.role.lock().clone();
    match stmt {
        ast::Statement::Insert { .. }
        | ast::Statement::Delete { .. }
        | ast::Statement::Update { .. } => autocommit_dml(engine, stmt, params),
        // The catalog part through the install leader, the refreshes after.
        ast::Statement::CreateDynamicTable(cdt) => {
            let (sql, role, cdt) = (sql.to_string(), role(), cdt.clone());
            let initialize = cdt.initialize_on_create;
            let name = cdt.name.clone();
            let id =
                engine.mutate(move |st, wal| st.create_dynamic_table(&sql, cdt, &role, wal))?;
            if initialize {
                engine.initialize_dt(id)?;
            }
            Ok(ExecResult::Ok(format!("dynamic table {name} created")))
        }
        ast::Statement::AlterDynamicTable {
            name,
            action: ast::AlterDtAction::Refresh,
        } => {
            let n = engine.manual_refresh(name, &role())?;
            Ok(ExecResult::Ok(format!(
                "{name} refreshed ({n} refreshes executed)"
            )))
        }
        _ => {
            let (sql, role, stmt) = (sql.to_string(), role(), stmt.clone());
            engine.mutate(move |st, wal| st.execute_ddl(stmt, &sql, &role, wal))
        }
    }
}

/// `BEGIN` (none open), `COMMIT` and `ROLLBACK` of a session's SQL-level
/// transaction.
fn transaction_control(
    engine: &Engine,
    session: &SessionInner,
    mut open: MutexGuard<'_, Option<Transaction>>,
    stmt: &ast::Statement,
) -> DtResult<ExecResult> {
    if let ast::Statement::Begin = stmt {
        let prelock = std::mem::take(&mut *session.prelock.lock());
        // A lock that cannot be had (timeout, deadlock) leaves the
        // ordinary optimistic start.
        let txn = Transaction::start_locked(engine.clone(), &prelock)
            .unwrap_or_else(|_| Transaction::start(engine.clone(), None));
        let msg = format!("transaction {} started", txn.id());
        *open = Some(txn);
        return Ok(ExecResult::Ok(msg));
    }
    let commit = matches!(stmt, ast::Statement::Commit);
    let verb = if commit { "COMMIT" } else { "ROLLBACK" };
    let txn = open.take().ok_or_else(|| {
        DtError::Txn(format!("{verb} outside a transaction (no BEGIN in effect)"))
    })?;
    drop(open);
    if !commit {
        txn.rollback()?;
        return Ok(ExecResult::Ok("transaction rolled back".into()));
    }
    let touched = txn.touched_tables();
    let commit_ts = txn.commit().inspect_err(|e| {
        if is_serialization_conflict(e) {
            *session.prelock.lock() = touched;
        }
    })?;
    Ok(ExecResult::Ok(format!(
        "transaction committed at {commit_ts}"
    )))
}

/// Auto-commit DML: the degenerate one-statement transaction. Plans the
/// statement against a fresh snapshot, buffers, and commits
/// optimistically; on a write-write conflict (another writer landed on
/// the same table first) it retries against the new state, so a single
/// statement behaves as if it had serialized after the winner.
fn autocommit_dml(
    engine: &Engine,
    stmt: &ast::Statement,
    params: &[Value],
) -> DtResult<ExecResult> {
    // Conflicts require a concurrent committer per attempt; a bounded
    // retry only gives up under pathological sustained contention, where
    // surfacing the conflict beats spinning forever.
    const AUTOCOMMIT_RETRIES: usize = 64;
    let mut last_conflict = None;
    // Tables to lock pessimistically *before* replanning a retry. Filled
    // after a conflict on a table whose admission mode is pessimistic:
    // re-running the statement with those locks already held pins the
    // table's latest version, so the retry plans against current state
    // and cannot lose admission again — turning abort-retry churn into
    // one bounded wait in the FIFO queue.
    let mut prelock: Vec<dt_common::EntityId> = Vec::new();
    for attempt in 0..AUTOCOMMIT_RETRIES {
        let mut txn = Transaction::start_locked(engine.clone(), &prelock)?;
        let result = in_transaction(&mut txn, stmt, params)?;
        let touched = txn.touched_tables();
        // Unbatched install: a single bounded-retry statement wants the
        // shortest possible admission-lock hold. Riding the group-commit
        // queue would hold this statement's per-table lock across a
        // leader/follower handoff, inflating conflict aborts on hot
        // tables — and batching only pays off on disjoint workloads,
        // where the unbatched path never aborts to begin with. Explicit
        // transactions (whose callers own their retry policy) batch.
        match txn
            .prepare_commit()
            .and_then(|prepared| prepared.commit_unbatched())
        {
            Ok(_) => return Ok(result),
            Err(e) if is_serialization_conflict(&e) => {
                last_conflict = Some(e);
                prelock = touched
                    .into_iter()
                    .filter(|e| engine.locks.mode(*e) == dt_txn::LockMode::Pessimistic)
                    .collect();
                dt_common::retry_backoff(attempt);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_conflict.expect("loop exits early unless a conflict occurred"))
}
