"""Realize a project plan as actual SQL committed to a repository.

The realizer is the closing of the synthesis loop: each planned commit
budget is spent on concrete schema operations (table births and deaths,
attribute injections/ejections, type and primary-key changes) chosen so
that re-measuring the realized repository with the *real* pipeline
(lex -> parse -> build -> diff) recovers the planned activity exactly.

Exactness rules the op selection:

- all ops within one commit touch pairwise-disjoint attributes, so no
  op masks another in the version diff;
- unit ops only target tables/attributes that already existed before
  the commit (changes inside a table born this commit fold into its
  birth);
- ejections never empty a table, deletions never empty the schema.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.schema.model import Attribute, Schema, Table
from repro.schema.writer import render_schema
from repro.sqlddl.types import DataType
from repro.synthesis.naming import NameForge
from repro.synthesis.plan import CommitPlan, ProjectPlan
from repro.vcs.repository import Repository

_TYPE_PALETTE: tuple[DataType, ...] = (
    DataType("INT"),
    DataType("BIGINT"),
    DataType("SMALLINT"),
    DataType("VARCHAR", ("255",)),
    DataType("VARCHAR", ("64",)),
    DataType("TEXT"),
    DataType("DATETIME"),
    DataType("DATE"),
    DataType("DECIMAL", ("10", "2")),
    DataType("BOOLEAN"),
    DataType("DOUBLE"),
)

_FILLER_PATHS = (
    "src/app.py",
    "src/models.py",
    "src/views.py",
    "lib/util.js",
    "docs/changelog.md",
    "Makefile",
)


@dataclass
class _MutableTable:
    """Working copy of a table during realization."""

    name: str
    attributes: list[tuple[str, DataType, bool]]  # (name, type, nullable)
    pk: set[str]
    born_at: int = 0  # commit index of the table's birth
    touches: int = 0  # intra-table updates received so far

    def to_table(self) -> Table:
        return Table(
            name=self.name,
            attributes=tuple(
                Attribute(name=n, data_type=t, nullable=nullable)
                for n, t, nullable in self.attributes
            ),
            primary_key=tuple(sorted(self.pk)),
        )

    def attr_names(self) -> set[str]:
        return {n for n, _, _ in self.attributes}


@dataclass
class _WorkingSchema:
    """Mutable schema state plus the non-logical "extras" of the file."""

    tables: dict[str, _MutableTable] = field(default_factory=dict)
    extras: list[str] = field(default_factory=list)
    extras_counter: int = 0
    commit_index: int = 0  # current commit ordinal (for table ages)

    def to_schema(self) -> Schema:
        return Schema(tuple(t.to_table() for t in self.tables.values()))

    def render(self, project: str) -> bytes:
        text = render_schema(self.to_schema(), header=f"Schema of {project}")
        if self.extras:
            text += "\n" + "\n".join(self.extras) + "\n"
        return text.encode("utf-8")


def _new_table(forge: NameForge, rng: random.Random, n_attrs: int) -> _MutableTable:
    name = forge.table_name()
    attributes: list[tuple[str, DataType, bool]] = []
    taken: set[str] = set()
    pk: set[str] = set()
    for index in range(n_attrs):
        if index == 0:
            column = "id"
            if column in taken:  # pragma: no cover - fresh table
                column = forge.column_name(taken)
            data_type = DataType("INT")
            pk.add(column)
            nullable = False
        else:
            column = forge.column_name(taken)
            data_type = rng.choice(_TYPE_PALETTE)
            nullable = rng.random() < 0.6
        taken.add(column)
        attributes.append((column, data_type, nullable))
    return _MutableTable(name=name, attributes=attributes, pk=pk)


def _initial_schema(
    forge: NameForge, rng: random.Random, n_tables: int
) -> _WorkingSchema:
    working = _WorkingSchema()
    for _ in range(n_tables):
        table = _new_table(forge, rng, n_attrs=rng.randint(2, 10))
        working.tables[table.name] = table
    return working


def _foreign_key_statement(working: _WorkingSchema, rng: random.Random, n: int) -> str | None:
    """An ALTER ... ADD CONSTRAINT ... FOREIGN KEY between two live tables.

    Foreign keys are sub-logical for the core study (the builder applies
    ADD CONSTRAINT FK as a no-op), so emitting them never perturbs the
    planned activity — but the FK-usage extension can measure them.
    """
    if len(working.tables) < 2:
        return None
    child_name, parent_name = rng.sample(sorted(working.tables), 2)
    child = working.tables[child_name]
    parent = working.tables[parent_name]
    if not parent.pk:
        return None
    column = rng.choice(child.attributes)[0]
    target = sorted(parent.pk)[0]
    return (
        f"ALTER TABLE `{child.name}` ADD CONSTRAINT `fk_{n}` "
        f"FOREIGN KEY (`{column}`) REFERENCES `{parent.name}` (`{target}`);"
    )


def _mutate_extras(working: _WorkingSchema, rng: random.Random) -> None:
    """A non-active commit: touch the file without touching the schema."""
    working.extras_counter += 1
    n = working.extras_counter
    choice = rng.random()
    if choice < 0.35 or not working.tables:
        working.extras.append(f"-- maintenance note #{n}: tuning pass")
    elif choice < 0.6:
        table = rng.choice(sorted(working.tables))
        working.extras.append(f"INSERT INTO `{table}` VALUES ({n}); -- seed row")
    elif choice < 0.85:
        table = rng.choice(sorted(working.tables))
        columns = working.tables[table].attributes
        column = rng.choice(columns)[0]
        working.extras.append(f"CREATE INDEX `idx_{n}` ON `{table}` (`{column}`);")
    else:
        statement = _foreign_key_statement(working, rng, n)
        if statement is None:
            working.extras.append(f"-- maintenance note #{n}: tuning pass")
        else:
            working.extras.append(statement)


@dataclass
class _CommitBudget:
    """Mutable budget tracking for one active commit."""

    remaining: int
    touched: set[tuple[str, str]] = field(default_factory=set)  # (table, attr)
    born_tables: set[str] = field(default_factory=set)
    dead_tables: set[str] = field(default_factory=set)

    def touch(self, table: str, attr: str) -> None:
        self.touched.add((table, attr))

    def is_touched(self, table: str, attr: str) -> bool:
        return (table, attr) in self.touched


def _insert_tables(
    working: _WorkingSchema,
    budget: _CommitBudget,
    plan_state: dict[str, int],
    forge: NameForge,
    rng: random.Random,
) -> None:
    first = True
    while (
        plan_state["inserts"] > 0
        and budget.remaining >= 1
        and (first or rng.random() < 0.75)
    ):
        first = False
        # Single-column tables are legitimate SQL (tag lists, migration
        # markers); they let even one-attribute budgets move the line.
        size = rng.randint(1, min(7, budget.remaining)) if budget.remaining < 4 else rng.randint(2, min(7, budget.remaining))
        table = _new_table(forge, rng, n_attrs=size)
        table.born_at = working.commit_index
        working.tables[table.name] = table
        budget.born_tables.add(table.name)
        budget.remaining -= size
        plan_state["inserts"] -= 1


def _delete_tables(
    working: _WorkingSchema,
    budget: _CommitBudget,
    plan_state: dict[str, int],
    rng: random.Random,
    growth_discipline: bool = False,
) -> None:
    while plan_state["deletes"] > 0 and budget.remaining >= 1 and rng.random() < 0.6:
        if growth_discipline and len(budget.dead_tables) >= len(budget.born_tables):
            # Disciplined projects only retire tables in commits that
            # grow at least as much: the schema line never dips.
            break
        candidates = [
            t
            for t in working.tables.values()
            if t.name not in budget.born_tables
            and len(t.attributes) <= budget.remaining
            and not any(budget.is_touched(t.name, a) for a in t.attr_names())
        ]
        if len(working.tables) <= 1 or not candidates:
            break
        # Electrolysis bias: deletions strike the quiet and the young
        # far more often than old, much-updated tables.
        ranked = sorted(candidates, key=lambda t: (t.touches, -t.born_at, t.name))
        pool = ranked[: max(1, (len(ranked) + 1) // 3)]
        victim = rng.choice(pool)
        budget.remaining -= len(victim.attributes)
        budget.dead_tables.add(victim.name)
        del working.tables[victim.name]
        # Keep the non-logical extras consistent: seed rows, indexes and
        # foreign keys of a dropped table leave the file with it.
        needle = f"`{victim.name}`"
        working.extras = [line for line in working.extras if needle not in line]
        plan_state["deletes"] -= 1


def _eligible_tables(working: _WorkingSchema, budget: _CommitBudget) -> list[_MutableTable]:
    """Tables that existed before this commit and still exist."""
    return [
        t
        for name, t in sorted(working.tables.items())
        if name not in budget.born_tables
    ]


def _op_inject(
    working: _WorkingSchema, budget: _CommitBudget, forge: NameForge, rng: random.Random
) -> bool:
    tables = _eligible_tables(working, budget)
    if not tables:
        return False
    table = rng.choice(tables)
    # Avoid resurrecting a name ejected in this same commit: the diff
    # would fold eject+inject of an identical attribute into nothing.
    taken = table.attr_names() | {
        attr for table_name, attr in budget.touched if table_name == table.name
    }
    column = forge.column_name(taken)
    table.attributes.append((column, rng.choice(_TYPE_PALETTE), rng.random() < 0.6))
    table.touches += 1
    budget.touch(table.name, column)
    budget.remaining -= 1
    return True


def _op_eject(working: _WorkingSchema, budget: _CommitBudget, rng: random.Random) -> bool:
    for table in rng.sample(
        _eligible_tables(working, budget), k=len(_eligible_tables(working, budget))
    ):
        removable = [
            (n, t, nullable)
            for n, t, nullable in table.attributes
            if n not in table.pk and not budget.is_touched(table.name, n)
        ]
        if removable and len(table.attributes) >= 2:
            victim = rng.choice(removable)
            table.attributes.remove(victim)
            table.touches += 1
            budget.touch(table.name, victim[0])
            budget.remaining -= 1
            return True
    return False


def _op_type_change(
    working: _WorkingSchema, budget: _CommitBudget, rng: random.Random
) -> bool:
    tables = _eligible_tables(working, budget)
    for table in rng.sample(tables, k=len(tables)):
        indices = [
            i
            for i, (n, _, _) in enumerate(table.attributes)
            if not budget.is_touched(table.name, n)
        ]
        if not indices:
            continue
        index = rng.choice(indices)
        name, old_type, nullable = table.attributes[index]
        replacements = [t for t in _TYPE_PALETTE if t != old_type]
        table.attributes[index] = (name, rng.choice(replacements), nullable)
        table.touches += 1
        budget.touch(table.name, name)
        budget.remaining -= 1
        return True
    return False


def _op_pk_change(
    working: _WorkingSchema, budget: _CommitBudget, rng: random.Random
) -> bool:
    tables = _eligible_tables(working, budget)
    for table in rng.sample(tables, k=len(tables)):
        # Prefer widening the key: add a surviving non-pk attribute.
        additions = [
            n
            for n, _, _ in table.attributes
            if n not in table.pk and not budget.is_touched(table.name, n)
        ]
        if additions:
            chosen = rng.choice(additions)
            table.pk.add(chosen)
            table.touches += 1
            budget.touch(table.name, chosen)
            budget.remaining -= 1
            return True
        removals = [
            n for n in sorted(table.pk) if not budget.is_touched(table.name, n)
        ]
        if len(removals) >= 2:
            chosen = rng.choice(removals)
            table.pk.discard(chosen)
            table.touches += 1
            budget.touch(table.name, chosen)
            budget.remaining -= 1
            return True
    return False


def _apply_active_commit(
    working: _WorkingSchema,
    activity: int,
    plan: ProjectPlan,
    plan_state: dict[str, int],
    forge: NameForge,
    rng: random.Random,
) -> None:
    """Spend *activity* attribute-units of change on the working schema."""
    budget = _CommitBudget(remaining=activity)
    if not plan.flat_line:
        _insert_tables(working, budget, plan_state, forge, rng)
        _delete_tables(working, budget, plan_state, rng, plan.growth_discipline)
    while budget.remaining > 0:
        roll = rng.random()
        done = False
        if roll < plan.expansion_share:
            done = _op_inject(working, budget, forge, rng)
        elif roll < plan.expansion_share + 0.15:
            done = _op_eject(working, budget, rng)
        elif roll < plan.expansion_share + 0.28:
            done = _op_pk_change(working, budget, rng)
        else:
            done = _op_type_change(working, budget, rng)
        if not done:
            # Fallbacks, in order of least structural impact.
            done = (
                _op_type_change(working, budget, rng)
                or _op_inject(working, budget, forge, rng)
                or _op_pk_change(working, budget, rng)
                or _op_eject(working, budget, rng)
            )
        if not done:
            # Truly stuck (e.g. every pre-existing table gone): give the
            # schema a fresh table carrying the rest of the budget.
            size = budget.remaining
            table = _new_table(forge, rng, n_attrs=min(size, 8))
            table.born_at = working.commit_index
            working.tables[table.name] = table
            budget.born_tables.add(table.name)
            budget.remaining -= len(table.attributes)


def realize_project(
    plan: ProjectPlan, rng: random.Random
) -> tuple[Repository, str]:
    """Materialize *plan* into a repository; returns (repo, ddl path).

    The repository contains the planned DDL commits plus filler commits
    on other paths so that total commit count and project duration match
    the plan; a fraction of filler work happens on merged side branches,
    exercising the non-linear-history handling of the VCS layer.
    """
    repo = Repository(plan.name)
    forge = NameForge(rng)
    working = _initial_schema(forge, rng, plan.tables_at_start)
    plan_state = {"inserts": plan.insert_budget, "deletes": plan.delete_budget}

    # Roughly half the projects declare referential integrity from day
    # one; the rest never do — the "lack of integrity constraints in
    # several places" the related work reports.
    if len(working.tables) >= 2 and rng.random() < 0.45:
        for _ in range(rng.randint(1, min(3, len(working.tables) - 1))):
            working.extras_counter += 1
            statement = _foreign_key_statement(working, rng, working.extras_counter)
            if statement is not None:
                working.extras.append(statement)

    # Interleave filler commits with DDL commits on the global timeline.
    filler_total = max(0, plan.total_project_commits - plan.n_commits)
    pup_seconds = int(plan.pup_months * 30.4375 * 86_400)
    filler_times = sorted(
        plan.project_start + int(rng.random() * pup_seconds) for _ in range(filler_total)
    )
    ddl_events: list[tuple[int, CommitPlan | None]] = [(plan.v0_timestamp, None)]
    ddl_events.extend((c.timestamp, c) for c in plan.commits)
    events: list[tuple[int, str, CommitPlan | None]] = [
        (ts, "ddl", c) for ts, c in ddl_events
    ] + [(ts, "filler", None) for ts in filler_times]
    events.sort(key=lambda e: (e[0], e[1]))

    authors = [f"dev{i}" for i in range(1, rng.randint(3, 8))]
    filler_index = 0
    last_ts = 0
    skip_fillers = 0
    for ts, kind, commit_plan in events:
        ts = max(ts, last_ts + 1)
        last_ts = ts
        author = rng.choice(authors)
        if kind == "filler":
            if skip_fillers:
                skip_fillers -= 1
                continue
            filler_index += 1
            path = _FILLER_PATHS[filler_index % len(_FILLER_PATHS)]
            content = f"// revision {filler_index}\n".encode()
            if repo.head() is not None and rng.random() < 0.08:
                # Non-linear history: do the work on a side branch and
                # merge it back (the merge commit consumes one future
                # filler slot so totals stay exact).
                branch_name = f"feature-{filler_index}"
                repo.branch(branch_name)
                repo.commit(
                    {path: content},
                    author=author,
                    timestamp=ts,
                    message=f"work on {path} (branch)",
                    branch=branch_name,
                )
                repo.merge(branch_name, author=author, timestamp=ts + 30)
                last_ts = ts + 30
                skip_fillers = 1
            else:
                repo.commit(
                    {path: content},
                    author=author,
                    timestamp=ts,
                    message=f"work on {path}",
                )
            continue
        if commit_plan is None:  # V0
            repo.commit(
                {plan.ddl_path: working.render(plan.name)},
                author=author,
                timestamp=ts,
                message="initial database schema",
            )
            continue
        if commit_plan.is_active:
            working.commit_index += 1
            _apply_active_commit(
                working, commit_plan.activity, plan, plan_state, forge, rng
            )
            message = f"schema update ({commit_plan.activity} attributes)"
        else:
            _mutate_extras(working, rng)
            message = "non-logical schema file touch"
        repo.commit(
            {plan.ddl_path: working.render(plan.name)},
            author=author,
            timestamp=ts,
            message=message,
        )
    return repo, plan.ddl_path
