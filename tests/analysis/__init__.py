"""Tests for the determinism analyzer (lint engine, rules, invariants)."""
