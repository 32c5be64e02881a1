"""Operator families and stages used only by the battery's queries."""
