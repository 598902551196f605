# Quality gates.  `make check` is the whole pre-merge bar: generic linters
# (when installed), the project's own static verification subsystem, and
# the tier-1 test suite.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint verify test bench

check: lint verify test

# ruff/mypy are optional in minimal environments; the ast-based project
# lint (`repro check --lint`) always runs.  Without ruff, mutable default
# arguments (B006) are not checked locally; CI's `check` job runs ruff.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping: mutable defaults (B006) go unchecked"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping"; \
	fi
	$(PYTHON) -m repro check --lint

# Plan-check + cost-audit the whole workload corpus (see repro.analysis).
verify:
	$(PYTHON) -m repro check

test:
	$(PYTHON) -m pytest -q

bench:
	REPRO_CHECK=1 $(PYTHON) -m pytest benchmarks -q -s
